"""The four workloads: inputs made from the seed and a fixed list of operations.

An operation is one CLI command (driven in process through
``kitaevsim.cli.main``) or one library call, together with its output
check.  ``prepare`` writes the inputs and returns the operations; running
them is timed by the worker, checking them happens afterwards.

Library functions are always looked up through their module at call time
(``oracle.exact_evolve``), so the tracer's rebinding reaches these calls too.
"""

from __future__ import annotations

import argparse
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from kitaevsim import cli, density, hamiltonian, lattice, manifold, oracle, perturbation

import checks

# every exit code of kitaevsim.cli other than these means the command failed
# to run; 1 ("checks failed") is an output that the output check judges
CLI_FAILED = (2, 3)

COUPLINGS = {"x": 1.0, "y": 0.8, "z": 1.2}
# the drive string connects an excitation only on plaquette 0, the one
# plaquette that owns all six of its sites (see README)
DRIVEN_PLAQUETTE = 0


@dataclass(frozen=True)
class Sizes:
    label_torus: tuple[int, int] = (24, 24)
    sweep_steps: int = 101
    drive_samples: int = 801
    oracle_dense: tuple[int, int] = (2, 3)      # dense branch, dim 4096
    oracle_stream: tuple[int, int] = (2, 4)     # streaming branch, dim 65536
    oracle_undriven: tuple[int, int] = (2, 2)
    thermal: tuple[int, int] = (2, 3)


FULL = Sizes()


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    cli: bool = False

    def failed(self, result) -> bool:
        return self.cli and result in CLI_FAILED


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def random_bits(rng: np.random.Generator, n: int) -> int:
    return int("".join(str(b) for b in rng.integers(0, 2, size=n)), 2)


def write_config(path: Path, **values) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def cli_op(name: str, argv: list[str], check: Callable[[Any], list[str]]) -> Op:
    return Op(name, lambda: cli.main(argv), check, cli=True)


def _exit_ok(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def prepare(workload: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> list[Op]:
    """Write the workload's inputs under ``workdir`` and return its operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](workload_rng(workload, seed), workdir, sizes)


# ------------------------------------------------------------ label_torus

def label_torus(rng, workdir: Path, sizes: Sizes) -> list[Op]:
    nx, ny = sizes.label_torus
    initial = random_bits(rng, nx * ny)
    # the seed turns the sampled drive's global phase; the adaptive Simpson
    # error test is blind to it, so the quadrature work is the same for
    # every seed (it is not for other frequencies or sample grids)
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    d, omega, t_max = 0.01, 0.8, 2.0 * math.pi
    cfg = write_config(
        workdir / "label.cfg", nx=nx, ny=ny, jx=COUPLINGS["x"], jy=COUPLINGS["y"],
        jz=COUPLINGS["z"], d=d, omega=omega, initial=f"0x{initial:x}",
        plaquette=DRIVEN_PLAQUETTE, t_max=repr(t_max), samples=65,
    )
    t_drive = np.linspace(0.0, t_max, sizes.drive_samples)
    b = d * np.exp(-1j * (omega * t_drive + theta))
    drive_file = workdir / "drive.csv"
    np.savetxt(drive_file, np.c_[t_drive, b.real, b.imag], delimiter=",",
               fmt="%.17g", header="t,ReB,ImB")
    # a sweep wide enough to hold every resonance the couplings allow
    offset = float(rng.uniform(-0.07, 0.07))
    omega_min, omega_max = -7.0 + offset, 7.0 + offset
    dirs = {k: str(workdir / k) for k in ("evolve", "sweep", "phase")}
    check_rng = np.random.default_rng(rng.integers(2**32))

    def geometry():
        return lattice.build_lattice(nx, ny)

    def omega0():
        geom = geometry()
        return (checks.bond_energy(geom.bonds, geom.plaquettes, COUPLINGS, initial, DRIVEN_PLAQUETTE)
                - checks.bond_energy(geom.bonds, geom.plaquettes, COUPLINGS, initial))

    target = f"exc:p{DRIVEN_PLAQUETTE}:0x{initial:x}"
    return [
        cli_op("evolve", ["evolve", "--config", cfg, "--outdir", dirs["evolve"]],
               lambda code: _exit_ok(code) or checks.check_evolve(
                   Path(dirs["evolve"]), geometry(), COUPLINGS, d, omega, initial, check_rng)),
        cli_op("sweep", ["sweep", "--config", cfg, "--outdir", dirs["sweep"],
                         "--omega-min", repr(omega_min), "--omega-max", repr(omega_max),
                         "--omega-steps", str(sizes.sweep_steps), "--jobs", "2"],
               lambda code: _exit_ok(code) or checks.check_sweep(Path(dirs["sweep"]), omega0(), t_max)),
        cli_op("phase", ["phase", "--config", cfg, "--outdir", dirs["phase"],
                         "--drive-file", str(drive_file), "--d", "1"],
               lambda code: _exit_ok(code) or checks.check_custom_phase(
                   Path(dirs["phase"]), Path(dirs["evolve"]), target, d, omega, theta, t_drive)),
    ]


# ---------------------------------------------------------- oracle_xcheck

ORACLE_J = 1e-3      # weak coupling keeps the manifold basis nearly stationary
ORACLE_DETUNING = 1.0
ORACLE_TOL = 1e-9


def tdpt_crosscheck(shape, initial_bits: int, d: float, t_end: float, samples: int):
    """exact_evolve plus project_and_compare against evolve_coefficients."""
    geom = lattice.build_lattice(*shape)
    initial = manifold.FlipConfig(initial_bits, geom.n_plaquettes)
    probe = hamiltonian.CouplingParams(ORACLE_J, ORACLE_J, ORACLE_J, d=d)
    omega0 = (hamiltonian.energy_expectation(geom, probe, initial, manifold.excite(initial, DRIVEN_PLAQUETTE))
              - hamiltonian.energy_expectation(geom, probe, initial))
    omega = omega0 - ORACLE_DETUNING
    params = hamiltonian.CouplingParams(ORACLE_J, ORACLE_J, ORACLE_J, d=d, omega=omega)
    drive = perturbation.DriveSpec.exponential(d, omega, plaquette=DRIVEN_PLAQUETTE)
    times = np.linspace(0.0, t_end, samples)
    targets = perturbation.connected_targets(geom, params, initial, DRIVEN_PLAQUETTE)
    tdpt = perturbation.evolve_coefficients(geom, params, drive, initial, targets, times)
    psi0 = manifold.build_product_ket(geom, initial)
    basis = [psi0] + [manifold.build_product_ket(geom, tg.base, tg) for tg in targets]
    result = oracle.exact_evolve(geom, params, drive, psi0, times, tol=ORACLE_TOL)
    return result, oracle.project_and_compare(result, basis, tdpt)


def undriven_run(shape, initial_bits: int, t_end: float, samples: int):
    geom = lattice.build_lattice(*shape)
    params = hamiltonian.CouplingParams(COUPLINGS["x"], COUPLINGS["y"], COUPLINGS["z"])
    drive = perturbation.DriveSpec.exponential(0.0, 0.0, plaquette=DRIVEN_PLAQUETTE)
    psi0 = manifold.build_product_ket(geom, manifold.FlipConfig(initial_bits, geom.n_plaquettes))
    result = oracle.exact_evolve(geom, params, drive, psi0, np.linspace(0.0, t_end, samples), tol=ORACLE_TOL)
    return geom, psi0, result


def oracle_xcheck(rng, workdir: Path, sizes: Sizes) -> list[Op]:
    shapes = (sizes.oracle_dense, sizes.oracle_stream, sizes.oracle_undriven)
    bits = [random_bits(rng, nx * ny) for nx, ny in shapes]
    specs = {
        "dense_D": dict(shape=sizes.oracle_dense, initial_bits=bits[0], d=0.02, t_end=1.0, samples=2),
        "stream_D": dict(shape=sizes.oracle_stream, initial_bits=bits[1], d=0.02, t_end=1.0, samples=3),
    }
    specs["stream_D/2"] = dict(specs["stream_D"], d=0.01)
    reports = {}

    def crosscheck(name):
        spec = specs[name]

        def run():
            result, reports[name] = tdpt_crosscheck(**spec)
            return result, reports[name]

        def check(out):
            result, report = out
            problems = (checks.check_richardson(result, ORACLE_TOL)
                        + checks.check_second_order(report, spec["d"], spec["t_end"]))
            if name == "stream_D/2":
                if "stream_D" not in reports:
                    return problems + ["no stream_D report to halve against"]
                problems += checks.check_halving(reports["stream_D"].overall_max_error,
                                                 report.overall_max_error)
            return problems
        return Op(name, run, check)

    def check_undriven(out):
        geom, psi0, result = out
        return checks.check_richardson(result, ORACLE_TOL) + checks.check_undriven(
            result, geom, COUPLINGS, psi0)

    return [crosscheck(name) for name in specs] + [
        Op("undriven", lambda: undriven_run(sizes.oracle_undriven, bits[2], 2.0, 5), check_undriven),
    ]


# ------------------------------------------------------------ thermal_mix

def thermal_kets(geom, cfg: cli.RunConfig) -> list[np.ndarray]:
    """The weight-0 and weight-1 member kets of ``thermal`` at t_max, made
    with the library's label engine and embedding."""
    params = hamiltonian.CouplingParams(cfg.jx, cfg.jy, cfg.jz, d=cfg.d, omega=cfg.omega)
    drive = perturbation.DriveSpec.exponential(cfg.d, cfg.omega, plaquette=cfg.plaquette)
    times = np.linspace(0.0, cfg.t_max, cfg.samples)
    n = geom.n_plaquettes
    kets = []
    for bits in [0] + [1 << q for q in range(n)]:
        config = manifold.FlipConfig(bits, n)
        targets = perturbation.connected_targets(geom, params, config, cfg.plaquette)
        coeffs = perturbation.evolve_coefficients(geom, params, drive, config, targets, times)
        if coeffs:
            state = density.assemble_state(coeffs, float(times[-1]), config)
            kets.append(density.embed_active_state(geom, config, [c.target for c in coeffs], state))
        else:
            kets.append(manifold.build_product_ket(geom, config))
    return kets


def thermal_mix(rng, workdir: Path, sizes: Sizes) -> list[Op]:
    nx, ny = sizes.thermal
    kt = float(rng.uniform(0.5, 2.0))
    omega = float(rng.uniform(-1.0, 1.0))
    initial = random_bits(rng, nx * ny)
    cfg = write_config(
        workdir / "thermal.cfg", nx=nx, ny=ny, jx=COUPLINGS["x"], jy=COUPLINGS["y"],
        jz=COUPLINGS["z"], d=0.05, omega=repr(omega), plaquette=DRIVEN_PLAQUETTE,
        kt=repr(kt), t_max=repr(2.0 * math.pi), samples=65,
    )
    thermal_dir, entropy_dir = workdir / "thermal", workdir / "entropy"

    def check_thermal(code):
        if code:
            return _exit_ok(code)
        run_cfg = cli.load_config(argparse.Namespace(config=cfg))
        geom = lattice.build_lattice(nx, ny)
        doc = checks.read_json(thermal_dir / "thermal.json")
        problems = []
        for e, label in zip(doc["energies"], doc["members"]):
            want = checks.bond_energy(geom.bonds, geom.plaquettes, COUPLINGS, int(label[4:], 16))
            if abs(e - want) > 1e-12:
                problems.append(f"{label}: energy {e!r}, per-bond sum {want!r}")
        return problems + checks.check_thermal(thermal_dir, thermal_kets(geom, run_cfg), kt, geom.n_sites)

    return [
        cli_op("thermal", ["thermal", "--config", cfg, "--members", "weight01",
                           "--outdir", str(thermal_dir)], check_thermal),
        cli_op("entropy", ["entropy", "--config", cfg, "--initial", f"0x{initial:x}",
                           "--outdir", str(entropy_dir)],
               lambda code: _exit_ok(code) or checks.check_entropy_csv(entropy_dir, 65)),
    ]


# ---------------------------------------------------------- desk_validate

def desk_validate(rng, workdir: Path, sizes: Sizes) -> list[Op]:
    outdir = workdir / "validate"
    argv = ["validate", "--seed", str(int(rng.integers(1, 2**31))), "--outdir", str(outdir)]
    return [cli_op("validate", argv, lambda code: checks.check_validate(outdir, code))]


WORKLOADS = {
    "label_torus": label_torus,
    "oracle_xcheck": oracle_xcheck,
    "thermal_mix": thermal_mix,
    "desk_validate": desk_validate,
}
