"""Binary container round trips and the eigenvalue CSV export."""

import csv
import json
import struct

import numpy as np
import pytest

from boselab.grid import Grid1D, random_state
from boselab.marginals import partial_trace
from boselab.nbody import NBodySystem, evolve
from boselab.potentials import gaussian_well
from boselab.containers import (
    CONVENTIONS,
    FORMAT_VERSION,
    MAGIC,
    ContainerError,
    export_eigenvalue_csv,
    load_marginal,
    load_state,
    load_trajectory,
    read_container,
    save_marginal,
    save_state,
    save_trajectory,
    write_container,
)


@pytest.fixture
def setup():
    grid = Grid1D(8, 4.0)
    system = NBodySystem(grid, 2, potential=gaussian_well(1.0, 1.0),
                         omega=1.0)
    state = random_state(grid, 2, omega=1.0, seed=4, symmetric=True)
    return grid, system, state


def test_conventions_are_frozen():
    assert CONVENTIONS == {
        "time_direction": "i d/dt psi = +H psi",
        "coupling_sign": "b0 = -integral(V), attractive wells give b0 > 0",
        "lens_half_kinetic": True,
    }


def test_raw_container_round_trip(tmp_path):
    path = tmp_path / "blob.blab"
    payload = (np.arange(12, dtype=float) + 1j).reshape(3, 4)
    write_container(path, {"kind": "probe", "note": "x"}, payload)
    header, data = read_container(path)
    assert header["kind"] == "probe" and header["note"] == "x"
    assert header["dtype"] == "complex128"
    assert header["shape"] == [3, 4]
    np.testing.assert_array_equal(data, payload)


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.blab"
    write_container(path, {}, np.zeros(2, complex))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="bad magic"):
        read_container(path)


def test_container_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.blab"
    write_container(path, {}, np.zeros(2, complex))
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", FORMAT_VERSION + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="unsupported version"):
        read_container(path)


def test_container_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.blab"
    write_container(path, {}, np.zeros(4, complex))
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ContainerError, match="payload size"):
        read_container(path)


def test_state_round_trip(tmp_path, setup):
    _, system, state = setup
    path = tmp_path / "state.blab"
    save_state(path, system, state)
    system2, state2 = load_state(path)
    assert system2.n_particles == 2
    assert system2.omega == 1.0
    assert system2.grid == system.grid
    assert system2.potential.shape == "gaussian_well"
    assert system2.potential.a == 1.0
    np.testing.assert_array_equal(state2.amplitudes, state.amplitudes)


def test_state_half_precision_round_trip(tmp_path, setup):
    _, system, state = setup
    path = tmp_path / "state32.blab"
    save_state(path, system, state, dtype="complex64")
    _, state2 = load_state(path)
    assert state2.amplitudes.dtype == np.complex128
    assert np.max(np.abs(state2.amplitudes - state.amplitudes)) < 1e-6


def test_state_rejects_unknown_dtype(tmp_path, setup):
    _, system, state = setup
    with pytest.raises(ContainerError, match="unsupported dtype"):
        save_state(tmp_path / "x.blab", system, state, dtype="float16")


def test_kind_mismatch_is_detected(tmp_path, setup):
    _, system, state = setup
    path = tmp_path / "state.blab"
    save_state(path, system, state)
    with pytest.raises(ContainerError, match="not a kernel container"):
        load_marginal(path)
    with pytest.raises(ContainerError, match="not a trajectory container"):
        load_trajectory(path)


def test_trajectory_round_trip(tmp_path, setup):
    _, system, state = setup
    traj = evolve(system, state.normalized(), dt=1e-2, n_steps=10,
                  store_every=2)
    path = tmp_path / "run.blab"
    sidecar = save_trajectory(path, traj)
    assert sidecar.exists()
    assert json.loads(sidecar.read_text())["times"] == [
        float(t) for t in traj.times]
    back = load_trajectory(path)
    assert back.dt == traj.dt
    assert back.store_every == traj.store_every
    assert back.system.n_particles == 2
    assert len(back.states) == len(traj.states)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.norms, traj.norms)
    np.testing.assert_array_equal(back.energies, traj.energies)
    assert back.norm_drift is not None
    assert back.max_norm_drift() == traj.max_norm_drift()
    for a, b in zip(back.states, traj.states):
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_marginal_round_trip(tmp_path, setup):
    _, system, state = setup
    marg = partial_trace(state.normalized(), 1)
    path = tmp_path / "kernel.blab"
    save_marginal(path, marg, system=system)
    back = load_marginal(path)
    assert back.k == 1
    assert back.grid == marg.grid
    assert back.omega == marg.omega
    np.testing.assert_array_equal(back.kernel, marg.kernel)
    # also valid without an attached system
    save_marginal(tmp_path / "bare.blab", marg)
    bare = load_marginal(tmp_path / "bare.blab")
    np.testing.assert_array_equal(bare.kernel, marg.kernel)


def test_eigenvalue_csv_export(tmp_path, setup):
    _, system, state = setup
    marg = partial_trace(state.normalized(), 1)
    path = tmp_path / "eigs.csv"
    vals = export_eigenvalue_csv(path, marg, top=5)
    assert len(vals) == 5
    assert vals == sorted(vals, reverse=True)
    assert sum(export_eigenvalue_csv(tmp_path / "all.csv", marg,
                                     top=marg.grid.n)) == pytest.approx(
        marg.trace().real, rel=1e-12)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue"]
    assert len(rows) == 6
    assert [float(r[1]) for r in rows[1:]] == pytest.approx(vals)
