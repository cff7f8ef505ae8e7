"""Binary state/kernel containers and machine-readable exports.

One self-describing format covers every array artifact: a magic tag, a
length-prefixed JSON header carrying the physical metadata (particle
number, grid size and half-length, trap frequency, interaction shape and
exponent, and the sign/direction conventions of the integrator), then
the raw little-endian complex payload in C order.  Trajectories add a
JSON sidecar with the conserved-quantity series (times, norms, energy
expectations) and the largest norm drift over every step; marginal
kernels export alongside a CSV of their leading occupation eigenvalues.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .grid import Grid1D, GridError, TensorState
from .marginals import MarginalDensity
from .nbody import NBodySystem, Trajectory
from .potentials import PotentialSpec

__all__ = [
    "CONVENTIONS", "ContainerError",
    "write_container", "read_container",
    "save_state", "load_state",
    "save_trajectory", "load_trajectory",
    "save_marginal", "load_marginal", "export_eigenvalue_csv",
]

MAGIC = b"BLAB"
FORMAT_VERSION = 1

# sign/direction bookkeeping recorded in every artifact
CONVENTIONS = {
    "time_direction": "i d/dt psi = +H psi",
    "coupling_sign": "b0 = -integral(V), attractive wells give b0 > 0",
    "lens_half_kinetic": True,
}


class ContainerError(RuntimeError):
    """Malformed or inconsistent container data."""


def _potential_header(potential: PotentialSpec | None) -> dict | None:
    if potential is None:
        return None
    return {"shape": potential.shape, "a": potential.a, "s": potential.s,
            "r": potential.r, "beta": potential.beta}


def _potential_from_header(entry: dict | None) -> PotentialSpec | None:
    if entry is None:
        return None
    return PotentialSpec(shape=entry["shape"], a=entry["a"], s=entry["s"],
                         r=entry["r"], beta=entry["beta"])


def _system_header(system: NBodySystem) -> dict:
    return {
        "n_particles": system.n_particles,
        "n": system.grid.n,
        "length": system.grid.length,
        "omega": system.omega,
        "beta": None if system.potential is None else system.potential.beta,
        "potential": _potential_header(system.potential),
        "conventions": CONVENTIONS,
    }


def write_container(path, header: dict, payload: np.ndarray) -> None:
    """Magic, version, length-prefixed JSON header, raw complex payload."""
    payload = np.ascontiguousarray(payload)
    if payload.dtype == np.complex64:
        dtype_tag = "complex64"
        payload = payload.astype("<c8")
    else:
        dtype_tag = "complex128"
        payload = payload.astype("<c16")
    full = dict(header)
    full["dtype"] = dtype_tag
    full["shape"] = list(payload.shape)
    blob = json.dumps(full, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload.tobytes())


def read_container(path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ContainerError(f"{path}: bad magic")
        (version,) = struct.unpack("<H", fh.read(2))
        if version != FORMAT_VERSION:
            raise ContainerError(f"{path}: unsupported version {version}")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        dtype = "<c8" if header["dtype"] == "complex64" else "<c16"
        data = np.frombuffer(fh.read(), dtype=dtype)
    shape = tuple(header["shape"])
    if data.size != int(np.prod(shape)):
        raise ContainerError(f"{path}: payload size does not match shape")
    return header, data.reshape(shape).astype(np.complex128)


def save_state(path, system: NBodySystem, state: TensorState,
               dtype: str = "complex128") -> None:
    header = _system_header(system)
    header["kind"] = "state"
    payload = state.amplitudes
    if dtype == "complex64":
        payload = payload.astype(np.complex64)
    elif dtype != "complex128":
        raise ContainerError(f"unsupported dtype {dtype!r}")
    write_container(path, header, payload)


def load_state(path) -> tuple[NBodySystem, TensorState]:
    header, data = read_container(path)
    if header.get("kind") != "state":
        raise ContainerError(f"{path}: not a state container")
    system = _system_from_header(header)
    return system, TensorState(grid=system.grid, amplitudes=data,
                               omega=system.omega)


def _system_from_header(header: dict) -> NBodySystem:
    grid = Grid1D(header["n"], header["length"])
    return NBodySystem(grid=grid, n_particles=header["n_particles"],
                       potential=_potential_from_header(header["potential"]),
                       omega=header["omega"])


def save_trajectory(path, traj: Trajectory, dtype: str = "complex128") -> Path:
    """Container of stacked snapshots plus a JSON conserved-series sidecar."""
    path = Path(path)
    header = _system_header(traj.system)
    header["kind"] = "trajectory"
    header["dt"] = traj.dt
    header["store_every"] = traj.store_every
    stack = np.stack([s.amplitudes for s in traj.states])
    if dtype == "complex64":
        stack = stack.astype(np.complex64)
    elif dtype != "complex128":
        raise ContainerError(f"unsupported dtype {dtype!r}")
    write_container(path, header, stack)
    sidecar = {
        "times": [float(t) for t in traj.times],
        "norms": [float(v) for v in traj.norms],
        "energies": [float(v) for v in traj.energies],
        "norm_drift": traj.max_norm_drift(),
    }
    side_path = path.with_suffix(path.suffix + ".json")
    side_path.write_text(json.dumps(sidecar, sort_keys=True, indent=1))
    return side_path


def load_trajectory(path) -> Trajectory:
    path = Path(path)
    header, stack = read_container(path)
    if header.get("kind") != "trajectory":
        raise ContainerError(f"{path}: not a trajectory container")
    system = _system_from_header(header)
    sidecar = json.loads(
        path.with_suffix(path.suffix + ".json").read_text())
    states = [TensorState(grid=system.grid, amplitudes=stack[i],
                          omega=system.omega)
              for i in range(stack.shape[0])]
    return Trajectory(
        system=system, dt=header["dt"], store_every=header["store_every"],
        times=np.array(sidecar["times"]), states=states,
        norms=np.array(sidecar["norms"]),
        energies=np.array(sidecar["energies"]),
        norm_drift=sidecar.get("norm_drift"))


def save_marginal(path, marg: MarginalDensity, system: NBodySystem | None = None,
                  dtype: str = "complex128") -> None:
    header = _system_header(system) if system is not None else {
        "n": marg.grid.n, "length": marg.grid.length, "omega": marg.omega,
        "n_particles": None, "beta": None, "potential": None,
        "conventions": CONVENTIONS,
    }
    header["kind"] = "kernel"
    header["k"] = marg.k
    payload = marg.kernel
    if dtype == "complex64":
        payload = payload.astype(np.complex64)
    write_container(path, header, payload)


def load_marginal(path) -> MarginalDensity:
    header, data = read_container(path)
    if header.get("kind") != "kernel":
        raise ContainerError(f"{path}: not a kernel container")
    grid = Grid1D(header["n"], header["length"])
    return MarginalDensity(grid=grid, k=header["k"], kernel=data,
                           omega=header["omega"])


def export_eigenvalue_csv(path, marg: MarginalDensity, top: int = 16) -> list:
    """CSV of the leading occupation eigenvalues of h^k * kernel."""
    mat = marg.matrix()
    mat = 0.5 * (mat + mat.conj().T)
    vals = np.linalg.eigvalsh(mat)[::-1][:top]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "eigenvalue"])
        for i, v in enumerate(vals):
            writer.writerow([i, f"{float(v):.16e}"])
    return [float(v) for v in vals]
