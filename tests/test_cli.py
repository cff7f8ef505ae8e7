"""Command-line entry points: exit codes, artifacts, determinism."""

import json
import subprocess
import sys

import pytest


def run_cli(*args, env_extra=None, cwd=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "boselab", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture(scope="module")
def nls_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("nls")
    proc = run_cli("nls-validate", "--out", str(out))
    return proc, out


def test_nls_validate_passes(nls_run):
    proc, out = nls_run
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "nls_validate"
    assert summary["passed"] is True
    assert summary["version"]
    assert summary["conventions"]["lens_half_kinetic"] is True
    asserted = [c for c in summary["checks"] if c["passed"] is not None]
    assert asserted and all(c["passed"] for c in asserted)
    assert any(line.startswith("PASS ") for line in proc.stdout.splitlines())


def test_csv_carries_config_hash(nls_run):
    proc, out = nls_run
    summary = json.loads((out / "summary.json").read_text())
    csv_files = sorted(out.glob("*.csv"))
    assert csv_files
    for path in csv_files:
        first = path.read_text().splitlines()[0]
        assert first == f"# config_hash={summary['config_hash']}"


def test_reruns_are_byte_identical(nls_run, tmp_path):
    _, out = nls_run
    rerun = tmp_path / "again"
    proc = run_cli("nls-validate", "--out", str(rerun))
    assert proc.returncode == 0
    assert ((rerun / "summary.json").read_bytes()
            == (out / "summary.json").read_bytes())
    for path in sorted(out.glob("*.csv")):
        assert (rerun / path.name).read_bytes() == path.read_bytes()


def test_seed_flag_changes_config_hash(nls_run, tmp_path):
    _, out = nls_run
    seeded = tmp_path / "seeded"
    proc = run_cli("nls-validate", "--out", str(seeded), "--seed", "1")
    assert proc.returncode == 0
    base = json.loads((out / "summary.json").read_text())
    other = json.loads((seeded / "summary.json").read_text())
    assert other["config"]["seed"] == 1
    assert other["config_hash"] != base["config_hash"]


def test_out_dir_from_environment(tmp_path):
    target = tmp_path / "envout"
    proc = run_cli("lens", env_extra={"BOSELAB_OUT": str(target)})
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((target / "summary.json").read_text())
    assert summary["experiment"] == "lens_suite"
    assert summary["passed"] is True


def test_bbgky_reports_second_order_ratio(tmp_path):
    out = tmp_path / "bbgky"
    proc = run_cli("bbgky", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    ratio_checks = [c for c in summary["checks"] if "ratio" in c["name"]]
    assert ratio_checks and ratio_checks[0]["passed"] is True
    ratios = ratio_checks[0]["values"]
    assert all(3.5 <= r <= 4.5 for r in ratios)


# the potential and times guards run under a suite that reads those keys;
# nls_validate rejects both keys as unread
_BAD_CONFIG_COMMAND = {"bad_r": "convergence", "bad_control_r": "energy",
                       "bad_times": "convergence", "bad_delta": "collapse"}


@pytest.mark.parametrize("name,contents,fragment", [
    ("bad_n", '{"n": 33}', "power of two"),
    ("bad_eps", '{"epsilon": 0.3}', "maximum of 0.25"),
    ("bad_r", '{"potential": {"shape": "mixed_sign", "a": 1.0, "s": 1.0,'
     ' "r": 0.6}}', "r <= 1/2"),
    ("bad_control_r", '{"control_potential": {"shape": "mixed_sign",'
     ' "a": 1.0, "s": 1.0, "r": 0.6}}', "control_potential: "),
    ("mismatch", '{"experiment": "convergence"}', "subcommand asked"),
    ("bad_times", '{"times": [0.0, 0.25, 0.4]}', "uniformly spaced"),
    ("not_json", "{oops", "config error"),
    ("kappas", '{"kappas": [0.1]}', "'kappas' was unexpected"),
    ("alphas", '{"alphas": [0.5]}', "'alphas' was unexpected"),
    # a cutoff shell delta <= |u| <= 1 that is empty
    ("bad_delta", '{"deltas": [2.0, 1e-2, 1e-3]}', "maximum of 1"),
])
def test_bad_config_exits_with_usage_code(tmp_path, name, contents, fragment):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(contents)
    proc = run_cli(_BAD_CONFIG_COMMAND.get(name, "nls-validate"),
                   "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert fragment in proc.stderr


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_bad_thread_count_exits_with_usage_code(tmp_path, source, value):
    out = tmp_path / "out"
    if source == "flag":
        proc = run_cli("nls-validate", "--threads", value, "--out", str(out))
    else:
        proc = run_cli("nls-validate", "--out", str(out),
                       env_extra={"BOSELAB_THREADS": value})
    assert proc.returncode == 2
    assert "config error:" in proc.stderr and "threads" in proc.stderr
    assert "Traceback" not in proc.stderr
    # rejected before any suite ran
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value", ["-1", "x", "2.5"])
def test_bad_seed_exits_with_usage_code(tmp_path, source, value):
    out = tmp_path / "out"
    if source == "flag":
        proc = run_cli("nls-validate", "--seed", value, "--out", str(out))
    else:
        proc = run_cli("nls-validate", "--out", str(out),
                       env_extra={"BOSELAB_SEED": value})
    assert proc.returncode == 2
    assert "config error:" in proc.stderr and "seed" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command,contents,fragment", [
    ("lens", '{"t_run": 1.5}', "outside the lens window"),
    ("lens", '{"omega": 0.0}', "wrong-convention control"),
    # the control reads 0.0998 here, just short of its 0.1 floor
    ("lens", '{"t_run": 0.2275}', "wrong-convention control"),
    ("nls-validate", '{"t_run": 0.005}', "needs at least 8"),
    ("bbgky", '{"t_run": 1e-9}', "three snapshots"),
    ("convergence", '{"times": [0, 1e308, Infinity]}', "type 'number'"),
    ("convergence", '{"times": [0, 1e308]}', "finite number of steps"),
    ("energy", '{"omegas": [NaN]}', "type 'number'"),
    ("nls-validate", '{"n": 256.0}', "type 'integer'"),
    # one particle: no k = 2 chaos distance, no hierarchy level, no margin
    ("convergence", '{"n_particles": [1]}', "n_particles"),
    ("bbgky", '{"n_particles": [1]}', "n_particles"),
    ("energy", '{"n_particles": [1]}', "n_particles"),
    # mean_field_k1_decreasing_in_N compares in list order
    ("convergence", '{"n_particles": [4, 3, 2]}', "strictly increasing"),
    ("convergence", '{"n_particles": [2, 2]}', "strictly increasing"),
    # keys the experiment never reads
    ("energy", '{"omega": 1.0}', "omega: energy_suite does not read"),
    ("collapse", '{"dt": 1e-3, "n": 64}', "dt: collapse_suite does not read"),
])
def test_config_that_cannot_run_exits_with_usage_code(tmp_path, command,
                                                      contents, fragment):
    # each of these used to end in a traceback with exit code 1 (a failed
    # check), to run on a NaN, or to run on values the config did not set
    cfg = tmp_path / "cfg.json"
    cfg.write_text(contents)
    out = tmp_path / "out"
    proc = run_cli(command, "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 2
    assert "config error:" in proc.stderr and fragment in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


_EDGE_NUMBERS = (0, 1, 2, 3, 16, -1, 0.0, 5e-324, 1e-300, 1e-9, 0.25, 0.5,
                 1.5, 16.0, 1e308, -1e308, 2 ** 62, 10 ** 400, float("inf"),
                 float("-inf"), float("nan"))


def _edge_settings() -> list:
    """(key, value) for every config key and edge number, in the key's
    shape; evenly spaced lists reach the checks behind the schema."""
    from boselab.cli import CONFIG_SCHEMA

    out = []
    for key, schema in CONFIG_SCHEMA["properties"].items():
        if key in ("experiment", "output_dir"):
            continue
        for v in _EDGE_NUMBERS:
            if schema.get("type") == "array":
                out += [(key, [v]), (key, [0.0, v]), (key, [0.0, v, 2 * v])]
            elif key.endswith("potential"):
                out += [(key, {"shape": shape, "a": 1.0, "s": 1.0, field: v})
                        for shape in ("gaussian_well", "mixed_sign")
                        for field in ("a", "s", "r", "beta")]
            else:
                out.append((key, v))
    return out


def _validates_or_fails_closed(cfg: dict) -> None:
    from boselab.cli import ConfigError, validate_config

    try:
        merged = validate_config(cfg)
    except ConfigError:
        return
    assert merged["experiment"] == cfg["experiment"]


# validate_config only validates: no experiment runs in these two tests

def test_validator_fails_closed_on_every_edge_setting():
    from boselab.cli import EXPERIMENTS

    for kind in EXPERIMENTS:
        for key, value in _edge_settings():
            _validates_or_fails_closed({"experiment": kind, key: value})


def test_validator_fails_closed_on_any_number():
    from hypothesis import given, settings, strategies as st

    from boselab.cli import EXPERIMENTS

    number = st.one_of(st.sampled_from(_EDGE_NUMBERS),
                       st.floats(allow_nan=True, allow_infinity=True),
                       st.integers(-2, 2 ** 70))
    keys = sorted({key for key, _ in _edge_settings()})
    free = st.tuples(st.sampled_from(keys),
                     number | st.lists(number, max_size=4))
    setting = st.sampled_from(_edge_settings()) | free

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(EXPERIMENTS),
           st.lists(setting, min_size=1, max_size=3))
    def check(kind, settings_):
        _validates_or_fails_closed(dict(settings_, experiment=kind))

    check()


def test_control_potential_obeys_the_dt_budget():
    from boselab.cli import ConfigError, validate_config

    strong = {"shape": "mixed_sign", "a": 200.0, "s": 1.0, "r": 0.5,
              "beta": 0.3}
    with pytest.raises(ConfigError, match="control_potential"):
        validate_config({"experiment": "convergence",
                         "control_potential": strong})


def test_extreme_potential_is_rejected_without_warnings():
    import warnings

    from boselab.cli import ConfigError, validate_config

    wide = {"shape": "mixed_sign", "a": 1.0, "s": 1e308}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="stability budget"):
            validate_config({"experiment": "convergence", "potential": wide})


@pytest.mark.parametrize("cfg,fragment", [
    ({"experiment": "energy_suite", "n_particles": [40]}, "N <= 5"),
    ({"experiment": "energy_suite", "n": 2048}, "pair slice"),
    ({"experiment": "collapse_suite", "grid_step": 1e-9}, "dual integrals"),
    ({"experiment": "collapse_suite", "grid_step": 5e-324,
      "grid_extent": 1e308}, "dual integrals"),
    ({"experiment": "nls_validate", "n": 2 ** 40}, "eigensolve side"),
    ({"experiment": "lens_suite", "n": 8192}, "eigensolve side"),
    ({"experiment": "energy_suite", "n": 512}, "pair slice"),
])
def test_size_envelope_rejects_oversized_suites(cfg, fragment):
    from boselab.cli import ConfigError, validate_config

    with pytest.raises(ConfigError, match=fragment):
        validate_config(cfg)


def test_size_envelope_admits_defaults_and_benchmark_configs():
    from boselab.cli import DEFAULTS, EXPERIMENTS, validate_config

    for kind in EXPERIMENTS:
        validate_config({"experiment": kind})
        # every key of the defaults is one the experiment reads
        validate_config(dict(DEFAULTS[kind], experiment=kind,
                             output_dir="runs"))
    # the perfbench workloads' overrides
    validate_config({"experiment": "convergence", "times": [0.0, 0.1]})
    validate_config({"experiment": "collapse_suite", "grid_step": 15.0,
                     "grid_extent": 45.0})
    # the largest admitted sizes
    validate_config({"experiment": "energy_suite", "n": 256,
                     "n_particles": [5]})
    validate_config({"experiment": "nls_validate", "n": 4096})


@pytest.mark.parametrize("cfg", [
    # 5e6 Strang steps of the N=4 tensor per potential
    {"experiment": "convergence", "times": [0.0, 1e4]},
    {"experiment": "nls_validate", "t_run": 1e5, "dt": 1e-6},
    {"experiment": "bbgky_residual", "t_run": 1e4},
    {"experiment": "lens_suite", "dt": 1e-12},
])
def test_run_length_envelope_rejects_long_runs(cfg):
    from boselab.cli import ConfigError, validate_config

    with pytest.raises(ConfigError, match="run-length envelope"):
        validate_config(cfg)


def _evolutions(monkeypatch, tmp_path, cfg):
    """(dt, n_steps, store_every) of every evolve and evolve_nls call a
    suite makes and of every run of its plan, in order; and the suite's
    exit code."""
    from boselab import cli, lens, nbody, nls

    calls = []

    def recorder(original):
        def recorded(model, start, dt, n_steps, *, store_every):
            calls.append((dt, n_steps, store_every))
            return original(model, start, dt, n_steps,
                            store_every=store_every)
        return recorded

    monkeypatch.setattr(nbody, "evolve", recorder(nbody.evolve))
    # lens binds evolve_nls at import
    monkeypatch.setattr(nls, "evolve_nls", recorder(nls.evolve_nls))
    monkeypatch.setattr(lens, "evolve_nls", nls.evolve_nls)
    planned = [(run.dt, run.steps, run.store_every)
               for run in cli._plan(cli.validate_config(cfg))]
    code, _ = cli.run_experiment(cfg, tmp_path)
    return calls, planned, code


@pytest.mark.parametrize("cfg,runs", [
    # per potential: the orbital and N = 2, 3
    ({"experiment": "convergence", "n": 16, "n_particles": [2, 3],
      "times": [0.0, 0.02]}, 6),
    # per N: dt and dt/2
    ({"experiment": "bbgky_residual", "n_particles": [2, 3], "t_run": 0.04},
     4),
    ({"experiment": "nls_validate", "n": 128, "t_run": 0.02}, 3),
    ({"experiment": "lens_suite", "n": 64}, 3),
], ids=["convergence", "bbgky", "nls-validate", "lens"])
def test_runners_evolve_the_planned_runs(monkeypatch, tmp_path, cfg, runs):
    calls, planned, code = _evolutions(monkeypatch, tmp_path, cfg)
    assert code == 0
    assert len(planned) == runs
    assert calls == planned


def test_plan_counts_the_lens_runs_shorter_than_two_steps(monkeypatch,
                                                          tmp_path):
    # round(t_run / dt) = round(tau / dt) = 1, but each lens flow takes at
    # least two steps; two trapped steps miss the intertwining bound
    cfg = {"experiment": "lens_suite", "n": 64, "dt": 0.3, "t_run": 0.4}
    assert round(cfg["t_run"] / cfg["dt"]) < 2
    calls, planned, code = _evolutions(monkeypatch, tmp_path, cfg)
    assert code == 1
    assert calls == planned
    assert [steps for _, steps, _ in planned] == [2, 2, 2]
    # a t_run this short at the default dt leaves the wrong-convention
    # control below its floor (4.3e-4 against 0.1): a config error
    short = tmp_path / "short.json"
    short.write_text('{"n": 64, "t_run": 1e-3}')
    proc = run_cli("lens", "--config", str(short), "--out",
                   str(tmp_path / "short"))
    assert proc.returncode == 2
    assert "wrong-convention control" in proc.stderr


def test_default_convergence_plan_totals():
    # the totals the README and the run-length envelope's comment state
    from boselab.cli import _plan, validate_config

    merged = validate_config({"experiment": "convergence"})
    runs = _plan(merged)
    assert sum(run.steps for run in runs) == 2000
    assert sum(run.steps * merged["n"] ** run.particles
               for run in runs) == 541_200_000


def _run_twice(tmp_path, *args):
    """Output directories of two CLI runs, at --threads 1 and 2, after
    checking that they hold the same files, byte for byte."""
    outs = [tmp_path / "first", tmp_path / "second"]
    for threads, out in zip(("1", "2"), outs):
        proc = run_cli(*args, "--threads", threads, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    first, second = outs
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    return first


# sha256 of the two configs' output directories (see _DEFAULT_DIGESTS);
# they pin the symmetric-sector Strang route at N = 2..4 from product
# states built on the sorted tuples, and the chaos distances read off the
# sector values (k = 2 from one Lanczos eigenvalue)
_CONVERGENCE_DIGESTS = {
    "small":
        "065c748ed4381316c6097347245e320d68a593efbc36980cdf58f13d1744223e",
    "one_step":
        "a8f5ba4ebbd9e3d06cadbbcc0220a05e5fe020e8d4dbc48b26e1651a87ee5946",
}


def test_convergence_reruns_byte_identical(tmp_path):
    # the chaos distances come from BLAS products (the Lanczos matvecs at
    # k = 2) and a LAPACK eigensolve (k = 1), whose last digits would
    # move with a threaded BLAS
    for name, cfg in (("small", {"n": 16, "n_particles": [2, 3],
                                 "times": [0.0, 0.02]}),
                      ("one_step", {"n_particles": [3, 4],
                                    "times": [0.0, 0.01]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = _run_twice(tmp_path / name, "convergence", "--config", str(path))
        assert len(sorted(out.glob("*.csv"))) == 4
        assert _directory_digest(out) == _CONVERGENCE_DIGESTS[name]


def test_convergence_forms_no_full_tensor(monkeypatch, tmp_path):
    # the default n = 32 and N = 2, 3, 4, one step: the initial states,
    # the propagation and the chaos distances stay on the sorted tuples,
    # so no (n,)^N tensor is ever formed (32^4 complex = 16.8 MB)
    import numpy as np

    from boselab import cli, grid, nbody

    formed = []

    def recorded(name, original):
        def run(*args, **kwargs):
            formed.append(name)
            return original(*args, **kwargs)
        return run

    expand = grid.BosonicState.amplitudes.fget
    monkeypatch.setattr(grid.BosonicState, "amplitudes",
                        property(recorded("expansion", expand)))
    monkeypatch.setattr(grid, "as_tensor", recorded(
        "as_tensor", grid.as_tensor))
    monkeypatch.setattr(grid, "symmetrize", recorded(
        "symmetrize", grid.symmetrize))
    potential_at = nbody.NBodySystem.potential_at

    def sector_only(self, index):
        if any(np.ndim(i) != 1 for i in index):
            formed.append("potential diagonal")
        return potential_at(self, index)

    monkeypatch.setattr(nbody.NBodySystem, "potential_at", sector_only)
    cfg = {"experiment": "convergence", "times": [0.0, 2e-3]}
    assert cli.validate_config(cfg)["n"] == 32
    code, report = cli.run_experiment(cfg, tmp_path)
    assert code == 0, report["checks"]
    assert formed == []
    tables = sorted(tmp_path.glob("chaos_distance_*.csv"))
    assert len(tables) == 4


def test_bbgky_reads_no_full_tensor(monkeypatch, tmp_path):
    # the default bbgky suite (N = 3 on 16 sites): its marginals and
    # collision terms read the sector values through one fold, so no
    # state's n^N tensor is ever read
    from boselab import cli, grid

    reads = []
    expand = grid.BosonicState.amplitudes.fget

    def recorded(state):
        reads.append(state.n_particles)
        return expand(state)

    monkeypatch.setattr(grid.BosonicState, "amplitudes", property(recorded))
    code, report = cli.run_experiment({"experiment": "bbgky_residual"},
                                      tmp_path)
    assert code == 0, report["checks"]
    assert reads == []
    assert (tmp_path / "bbgky_residuals.csv").is_file()
    assert (tmp_path / "mollifier_delta.csv").is_file()


def test_energy_estimate_reads_no_full_tensor(monkeypatch, tmp_path):
    # the default draws (100 each at N = 2 and 3): the moment bound's
    # right side is read off the sector values, so no state's n^N tensor
    # is read, and each N's draws share one H_N
    from boselab import cli, energy_checks, grid

    def refused(state):
        raise AssertionError("BosonicState.amplitudes read")

    monkeypatch.setattr(grid.BosonicState, "amplitudes", property(refused))
    builds = []
    build = energy_checks.hamiltonian

    def counted(system):
        builds.append(system.n_particles)
        return build(system)

    monkeypatch.setattr(energy_checks, "hamiltonian", counted)
    cfg = cli.validate_config({"experiment": "energy_suite"})
    checks = cli.energy_estimate(cfg, tmp_path, "0")
    assert [c["name"] for c in checks] == ["energy_estimate_k1_margin",
                                           "energy_estimate_k2_margin"]
    assert checks[0]["passed"]
    assert builds == [2, 3, 3]


def test_mollifier_check_forms_no_pair_kernel(tmp_path):
    # the pair density, not gamma^(2): its 4096^2 kernel alone would take
    # 268 MB.  About 0.27 MB once the sector tables are cached.
    import tracemalloc

    from boselab import cli

    cfg = cli.validate_config({"experiment": "bbgky_residual"})
    cli.bbgky_mollifier_delta(cfg, tmp_path, "0")
    tracemalloc.start()
    try:
        checks = cli.bbgky_mollifier_delta(cfg, tmp_path, "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks[0]["passed"]
    assert peak < 1_000_000


# sha256 over each default output directory's files, sorted by name;
# a change that moves printed digits updates its value here and lists the
# moved numbers in CHANGES.md
_DEFAULT_DIGESTS = {
    # energy and bbgky end with the checks of criteria 12 and 13:
    # energy_spectral_cutoff (spectral_cutoff_moments and
    # spectral_cutoff_kappa_slope, spectral_cutoff.csv) and
    # bbgky_mollifier_delta (mollifier_delta_exponent,
    # mollifier_delta.csv); the energy estimate's right side is the
    # power sums on the sector values, which moved the last digits of
    # its two margins
    "energy": "6a040727ffa166df420feb3360d2a0fd054440e1d442e4bdaa47284beb1b5615",
    "lens": "b543d56e9af038570b355f4d5ecf515712d7521d6769e67cf08c84096a4ac3b7",
    "bbgky": "d4569e83413a5273b925a1b3fc6da114d618b4456b3225d4224a9044c034de88",
    "nls-validate":
        "79f23fb9c079e32e9c7bc2c3f5de1b2291eb6cc5ba30ac1fecb5fa9bee19c7f7",
}


def _directory_digest(directory):
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


# sha256 of a collapse run on a 3 x 2 (eta, xi1) scan, every other key at
# its default: the dual integrals, the node-doubling probe, the control
# scan and the operator, lemma_F and trace tables
_COLLAPSE_DIGEST = (
    "21463b94ba26ffa3ea55a0aea731566039c3730286deace0a825eee6ad056b5b")


def test_collapse_reruns_byte_identical(tmp_path):
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps({"grid_step": 45.0, "grid_extent": 45.0}))
    out = _run_twice(tmp_path, "collapse", "--config", str(path))
    table = (out / "integral_I.csv").read_text().splitlines()
    assert len([line for line in table if line[0] != "#"]) == 1 + 3 * 2
    assert _directory_digest(out) == _COLLAPSE_DIGEST


@pytest.mark.parametrize("command", ["energy", "lens", "bbgky",
                                     "nls-validate"])
def test_default_run_reruns_byte_identical(tmp_path, command):
    out = _run_twice(tmp_path, command)
    assert (out / "summary.json").is_file()
    assert _directory_digest(out) == _DEFAULT_DIGESTS[command]


def test_missing_config_exits_with_usage_code(tmp_path):
    proc = run_cli("nls-validate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_failed_check_exits_with_failure_code(tmp_path):
    cfg = tmp_path / "coarse.json"
    cfg.write_text('{"dt": 0.05}')
    out = tmp_path / "out"
    proc = run_cli("nls-validate", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False
    assert any(line.startswith("FAIL ") for line in proc.stdout.splitlines())


def _nan_amplitude_run(cfg, out, rhash):
    from boselab.grid import BosonicState, Grid1D, random_state
    from boselab.nbody import NBodySystem, evolve

    g = Grid1D(16, 4.0)
    values = random_state(g, 2, seed=0).values.copy()
    values[7] = float("nan")
    evolve(NBodySystem(g, 2), BosonicState(g, 2, values), 1e-3, 5)
    return []


def _nan_orbital_run(cfg, out, rhash):
    from boselab.grid import Grid1D
    from boselab.nls import NLSProblem, evolve_nls, soliton

    g = Grid1D(64, 8.0)
    phi = soliton(g, 1.0)
    phi[10] = float("nan")
    evolve_nls(NLSProblem(g, b0=1.0), phi, 1e-3, 5)
    return []


def _nan_lens_run(cfg, out, rhash):
    # a NaN orbital used to pass the boundary guard (NaN > tol is False)
    # and come back as an all-NaN image
    from boselab.grid import Grid1D, gaussian_packet
    from boselab.lens import LensMap, lens_function

    g = Grid1D(64, 8.0)
    phi = gaussian_packet(g, 1.0)
    phi[10] = float("nan")
    lens_function(LensMap(1.0), g, phi, 0.3)
    return []


@pytest.mark.parametrize("runner", [_nan_amplitude_run, _nan_orbital_run,
                                    _nan_lens_run],
                         ids=["nbody", "nls", "lens"])
def test_nan_propagation_exits_with_abort_code(tmp_path, monkeypatch, runner):
    from boselab import cli

    monkeypatch.setitem(cli._RUNNERS, "nls_validate", (runner,))
    code, report = cli.run_experiment({"experiment": "nls_validate"}, tmp_path)
    assert code == cli.EXIT_NUMERICAL_ABORT == 3
    assert report["passed"] is False
    assert report["checks"][0]["name"] == "numerical_abort"
    assert "nan" in report["checks"][0]["value"]


def test_unconverged_lanczos_exits_with_abort_code(tmp_path, monkeypatch):
    # the k = 2 chaos distances at t = 0.02, the pair block and the
    # smoothing bound all need more than one step
    from boselab import cli

    monkeypatch.setattr("boselab.grid.LANCZOS_MAX_ITER", 1)
    for cfg in ({"experiment": "convergence", "n": 16,
                 "n_particles": [2, 3], "times": [0.0, 0.02]},
                {"experiment": "energy_suite", "n": 16, "draws": 2,
                 "n_particles": [2]}):
        code, report = cli.run_experiment(cfg, tmp_path / cfg["experiment"])
        assert code == cli.EXIT_NUMERICAL_ABORT == 3
        assert report["passed"] is False
        assert report["checks"][0]["name"] == "numerical_abort"
        assert "Lanczos did not reach" in report["checks"][0]["value"]


@pytest.mark.parametrize("command, cfg, message", [
    ("lens", {"length": 5.0}, "boundary mass fraction"),
    ("energy", {"length": 1e300, "draws": 2, "n_particles": [2]},
     "out of range"),
    ("energy", {"potential": {"shape": "gaussian_well", "a": 1e300,
                              "s": 1.0, "r": 0.0}}, "out of range"),
], ids=["lens_boundary_mass", "energy_huge_box", "energy_huge_well"])
def test_valid_config_that_breaks_down_exits_with_abort_code(
        tmp_path, command, cfg, message):
    # configs the validator admits, which stop on the lens resolution
    # guard or on a float overflow (h ** N, the potential's alpha)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    proc = run_cli(command, "--config", str(path), "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False
    assert summary["checks"][0]["name"] == "numerical_abort"
    assert message in summary["checks"][0]["value"]


@pytest.mark.parametrize("refine", [1, 2], ids=["scan", "node_doubling"])
def test_nan_collapse_value_exits_with_abort_code(tmp_path, monkeypatch,
                                                  refine):
    # NaN never wins `val > sup`, so only a finiteness test can catch it;
    # the fake peaks at (0, 45), where the node-doubling call is made
    from boselab import cli, collapse

    def fake_integral_I(probe, eta, xi1):
        bad = probe.refine == refine and (eta, xi1) == (0.0, 45.0)
        return {"value": float("nan") if bad else 100.0 - abs(eta) + xi1}

    monkeypatch.setattr(collapse, "integral_I", fake_integral_I)
    cfg = {"experiment": "collapse_suite", "grid_step": 45.0,
           "grid_extent": 45.0}
    code, report = cli.run_experiment(cfg, tmp_path)
    assert code == cli.EXIT_NUMERICAL_ABORT == 3
    assert report["passed"] is False
    assert report["checks"][0]["name"] == "numerical_abort"
    assert "nan" in report["checks"][0]["value"]


def _nan_middle_ratio(monkeypatch):
    from boselab import collapse

    def fake_direct_operator_test(grid, members, **kwargs):
        return [{"label": f"m{i}", "lhs": r, "rhs": 1.0, "ratio": r}
                for i, r in enumerate((1.0, float("nan"), 1.2))]

    monkeypatch.setattr(collapse, "direct_operator_test",
                        fake_direct_operator_test)
    return {"experiment": "collapse_suite"}, "collapse_modulation"


def _nan_middle_margin(monkeypatch):
    from boselab import energy_checks

    original = energy_checks.check_energy_estimate

    def fake_check_energy_estimate(system, states, k):
        results = original(system, states, k)
        results[1] = dict(results[1], margin=float("nan"))
        return results

    monkeypatch.setattr(energy_checks, "check_energy_estimate",
                        fake_check_energy_estimate)
    return ({"experiment": "energy_suite", "n_particles": [2], "draws": 3},
            "energy_estimate")


@pytest.mark.parametrize("inject", [_nan_middle_ratio, _nan_middle_margin],
                         ids=["modulation", "energy_estimate"])
def test_nan_in_list_valued_check_exits_with_abort_code(tmp_path,
                                                        monkeypatch, inject):
    # max([1.0, nan, 1.2]) / min(...) is 1.2 and min([a, nan, b]) skips the
    # NaN, so only a finiteness test can catch a NaN past the first element
    from boselab import cli

    cfg, check = inject(monkeypatch)
    monkeypatch.setitem(cli._RUNNERS, cfg["experiment"],
                        (getattr(cli, check),))
    code, report = cli.run_experiment(cfg, tmp_path)
    assert code == cli.EXIT_NUMERICAL_ABORT == 3
    assert report["passed"] is False
    assert report["checks"][0]["name"] == "numerical_abort"
    assert "nan" in report["checks"][0]["value"]


def test_help_exits_cleanly():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("convergence", "energy", "collapse", "lens", "bbgky",
                "nls-validate"):
        assert sub in proc.stdout


def _benchmark_modules():
    """PACKAGE_MODULES of perfbench/worker.py: the modules the benchmark
    worker imports during set-up."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "perfbench" / "worker.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "PACKAGE_MODULES"
                        for t in node.targets))


def test_benchmark_imports_every_package_module():
    # the benchmark worker imports the package's modules by name, so a
    # renamed, added or deleted module must be named there too
    from pathlib import Path

    listed = _benchmark_modules()
    src = Path(__file__).resolve().parents[1] / "src" / "boselab"
    modules = {path.stem for path in src.glob("*.py")}
    assert len(listed) == len(set(listed))
    assert set(listed) == modules - {"__init__", "__main__"}


def test_package_and_collapse_run_import_no_scipy(tmp_path):
    # collapse's window spline and tau Simpson rule are numpy forms of
    # scipy's, so no module of the package imports scipy, and neither
    # does a collapse run (the 3 x 2 scan of the rerun test)
    code = ("import importlib, sys; "
            f"[importlib.import_module('boselab.' + m) "
            f"for m in {_benchmark_modules()!r}]; "
            "from boselab import cli; "
            "code, _ = cli.run_experiment({'experiment': 'collapse_suite', "
            "'grid_step': 45.0, 'grid_extent': 45.0}, sys.argv[1]); "
            "assert code == 0, code; "
            "assert 'scipy' not in sys.modules, 'scipy imported'")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_energy_run_imports_no_scipy(tmp_path):
    # both energy eigenvalues come from grid.lanczos_min, so the suite
    # imports no scipy at all
    code = ("import sys; from boselab import cli; "
            "code, _ = cli.run_experiment({'experiment': 'energy_suite', "
            "'n': 16, 'draws': 2, 'n_particles': [2]}, sys.argv[1]); "
            "assert code == 0, code; "
            "assert 'scipy' not in sys.modules, 'scipy imported'")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_import_stays_light():
    code = ("import boselab, sys; "
            "assert 'numpy' not in sys.modules, 'numpy imported eagerly'; "
            "print(boselab.__version__)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1.0.0"
