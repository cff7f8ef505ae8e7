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


@pytest.mark.parametrize("name,contents,fragment", [
    ("bad_n", '{"n": 33}', "power of two"),
    ("bad_eps", '{"epsilon": 0.3}', "maximum of 0.25"),
    ("bad_r", '{"potential": {"shape": "mixed_sign", "a": 1.0, "s": 1.0,'
     ' "r": 0.6}}', "r <= 1/2"),
    ("mismatch", '{"experiment": "convergence"}', "subcommand asked"),
    ("bad_times", '{"times": [0.0, 0.25, 0.4]}', "uniformly spaced"),
    ("not_json", "{oops", "config error"),
    ("kappas", '{"kappas": [0.1]}', "'kappas' was unexpected"),
    ("alphas", '{"alphas": [0.5]}', "'alphas' was unexpected"),
])
def test_bad_config_exits_with_usage_code(tmp_path, name, contents, fragment):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(contents)
    proc = run_cli("nls-validate", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
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
    ("nls-validate", '{"t_run": 0.005}', "needs at least 8"),
    ("bbgky", '{"t_run": 1e-9}', "three snapshots"),
    ("convergence", '{"times": [0, 1e308, Infinity]}', "type 'number'"),
    ("convergence", '{"times": [0, 1e308]}', "finite number of steps"),
    ("energy", '{"omegas": [NaN]}', "type 'number'"),
    ("nls-validate", '{"n": 256.0}', "type 'integer'"),
])
def test_config_that_cannot_run_exits_with_usage_code(tmp_path, command,
                                                      contents, fragment):
    # each of these used to end in a traceback with exit code 1 (a failed
    # check) or to run on a NaN
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
])
def test_size_envelope_rejects_oversized_suites(cfg, fragment):
    from boselab.cli import ConfigError, validate_config

    with pytest.raises(ConfigError, match=fragment):
        validate_config(cfg)


def test_size_envelope_admits_defaults_and_benchmark_configs():
    from boselab.cli import EXPERIMENTS, validate_config

    for kind in EXPERIMENTS:
        validate_config({"experiment": kind})
    # the perfbench workloads' overrides
    validate_config({"experiment": "convergence", "times": [0.0, 0.1]})
    validate_config({"experiment": "collapse_suite", "grid_step": 15.0,
                     "grid_extent": 45.0})
    # the largest admitted sizes
    validate_config({"experiment": "energy_suite", "n": 1024,
                     "n_particles": [5]})
    validate_config({"experiment": "nls_validate", "n": 4096})


def _run_twice(tmp_path, *args):
    """Output directories of two identical CLI runs, after checking that
    they hold the same files, byte for byte."""
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        proc = run_cli(*args, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    first, second = outs
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    return first


def test_convergence_reruns_byte_identical(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"n": 16, "n_particles": [2, 3],
                               "times": [0.0, 0.02]}))
    out = _run_twice(tmp_path, "convergence", "--config", str(cfg))
    assert len(sorted(out.glob("*.csv"))) == 4


@pytest.mark.parametrize("command", ["energy", "lens"])
def test_default_run_reruns_byte_identical(tmp_path, command):
    out = _run_twice(tmp_path, command)
    assert (out / "summary.json").is_file()


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
    from boselab.grid import Grid1D, random_state
    from boselab.nbody import NBodySystem, evolve

    g = Grid1D(16, 4.0)
    state = random_state(g, 2, seed=0)
    state.amplitudes[3, 5] = float("nan")
    evolve(NBodySystem(g, 2), state, 1e-3, 5)
    return []


def _nan_orbital_run(cfg, out, rhash):
    from boselab.grid import Grid1D
    from boselab.nls import NLSProblem, evolve_nls, soliton

    g = Grid1D(64, 8.0)
    phi = soliton(g, 1.0)
    phi[10] = float("nan")
    evolve_nls(NLSProblem(g, b0=1.0), phi, 1e-3, 5)
    return []


@pytest.mark.parametrize("runner", [_nan_amplitude_run, _nan_orbital_run],
                         ids=["nbody", "nls"])
def test_nan_propagation_exits_with_abort_code(tmp_path, monkeypatch, runner):
    from boselab import cli

    monkeypatch.setitem(cli._RUNNERS, "nls_validate", (runner,))
    code, report = cli.run_experiment({"experiment": "nls_validate"}, tmp_path)
    assert code == cli.EXIT_NUMERICAL_ABORT == 3
    assert report["passed"] is False
    assert report["checks"][0]["name"] == "numerical_abort"
    assert "nan" in report["checks"][0]["value"]


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
    calls = []

    def fake_check_energy_estimate(system, state, k=1):
        calls.append(k)
        res = original(system, state, k)
        return dict(res, margin=float("nan")) if len(calls) == 2 else res

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


def test_package_import_stays_light():
    code = ("import boselab, sys; "
            "assert 'numpy' not in sys.modules, 'numpy imported eagerly'; "
            "print(boselab.__version__)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1.0.0"
