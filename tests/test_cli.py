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
    ("not_json", "{oops", "config error"),
])
def test_bad_config_exits_with_usage_code(tmp_path, name, contents, fragment):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(contents)
    proc = run_cli("nls-validate", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert fragment in proc.stderr


def test_control_potential_obeys_the_dt_budget():
    from boselab.cli import ConfigError, validate_config

    strong = {"shape": "mixed_sign", "a": 200.0, "s": 1.0, "r": 0.5,
              "beta": 0.3}
    with pytest.raises(ConfigError, match="control_potential"):
        validate_config({"experiment": "convergence",
                         "control_potential": strong})


def test_convergence_reruns_byte_identical(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"n": 16, "n_particles": [2, 3],
                               "times": [0.0, 0.02]}))
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        proc = run_cli("convergence", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    first, second = outs
    assert ((first / "summary.json").read_bytes()
            == (second / "summary.json").read_bytes())
    csv_files = sorted(first.glob("*.csv"))
    assert len(csv_files) == 4
    for path in csv_files:
        assert (second / path.name).read_bytes() == path.read_bytes()


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

    monkeypatch.setitem(cli._RUNNERS, "nls_validate", runner)
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
