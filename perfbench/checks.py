"""Output checks made apart from the program.

Every check returns a list of problems; an empty list means the output
passed.  Each compares the program's output against a computation done
here with plain numpy (closed forms, per-bond sums, Kronecker-product
Hamiltonians, K x K Gram matrices) or against a property the method must
have.  None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

PLAQUETTE_PATTERN = ("x", "y", "z", "x", "y", "z")
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# ---------------------------------------------------------------- readers

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Columns and rows of a program CSV, skipping its '#' header block."""
    with open(path, newline="") as fh:
        body = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(body))
    return rows[0], rows[1:]


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


# ------------------------------------------------------- model quantities

def site_components(plaquettes) -> list[str]:
    """Owner label of each site: the pattern label given by the
    lowest-indexed plaquette that contains it."""
    n_sites = 1 + max(max(p) for p in plaquettes)
    comps: list[str | None] = [None] * n_sites
    for sites in plaquettes:
        for pos, s in enumerate(sites):
            if comps[s] is None:
                comps[s] = PLAQUETTE_PATTERN[pos]
    return comps


def site_signs(plaquettes, bits: int, excited: int = -1) -> np.ndarray:
    """+-1 per site: parity of flipped incident plaquettes, plus the
    third-position site of the excited plaquette."""
    plaq = np.asarray(plaquettes)
    flipped = np.array([(bits >> p) & 1 for p in range(len(plaq))])
    count = np.zeros(plaq.max() + 1, dtype=int)
    np.add.at(count, plaq.reshape(-1), np.repeat(flipped, 6))
    signs = np.where(count % 2, -1.0, 1.0)
    if excited >= 0:
        signs[plaq[excited, 2]] *= -1.0
    return signs


def bond_energy(bonds, plaquettes, couplings: dict, bits: int, excited: int = -1) -> float:
    """Per-bond energy sum of a labelled product state: a bond of
    component a contributes J_a s_i s_j when both end sites carry label a."""
    comps = site_components(plaquettes)
    signs = site_signs(plaquettes, bits, excited)
    total = 0.0
    for i, j, c in bonds:
        if comps[i] == comps[j] == c:
            total += couplings[c] * signs[i] * signs[j]
    return total


def unit_coefficient(delta: float, t) -> np.ndarray:
    """(1 - exp(i delta t)) / delta, the first-order coefficient of a
    unit-amplitude exponential drive, written to stay exact at delta = 0."""
    t = np.asarray(t, dtype=float)
    return -1j * t * np.exp(0.5j * delta * t) * np.sinc(delta * t / (2.0 * np.pi))


def kron_h0(n_sites: int, bonds, couplings: dict) -> np.ndarray:
    """Dense H0 = sum J_a sigma_i^a sigma_j^a from Kronecker products,
    site k on bit k of the basis index."""
    dim = 2**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for i, j, c in bonds:
        factors = [np.eye(2, dtype=complex)] * n_sites
        factors[i] = PAULI[c]
        factors[j] = PAULI[c]
        term = np.ones((1, 1), dtype=complex)
        for site in range(n_sites - 1, -1, -1):  # most significant bit first
            term = np.kron(term, factors[site])
        h += couplings[c] * term
    return h


def von_neumann(evals: np.ndarray, floor: float = 1e-14) -> float:
    evals = evals[evals > floor]
    return float(-np.sum(evals * np.log(evals)))


def split_ab(psi: np.ndarray, n_sites: int) -> np.ndarray:
    """Ket reshaped to (sublattice-A index, sublattice-B index); A sites
    are the even sites."""
    tensor = psi.reshape([2] * n_sites)  # axis j holds site n-1-j
    a_axes = [n_sites - 1 - s for s in range(0, n_sites, 2)]
    b_axes = [n_sites - 1 - s for s in range(1, n_sites, 2)]
    return np.transpose(tensor, a_axes + b_axes).reshape(2 ** len(a_axes), -1)


# ------------------------------------------------------------ label_torus

def check_evolve(outdir: Path, geom, couplings: dict, d: float, omega: float,
                 initial: int, rng: np.random.Generator, n_sample: int = 16) -> list[str]:
    """coefficients.csv and energies.csv of an all-targets evolve run."""
    problems = []
    _, e_rows = read_csv(outdir / "energies.csv")
    energies = {(int(b, 16), int(p)): float(e) for b, _, p, e in e_rows}
    e_init = energies.get((initial, -1))
    if e_init is None:
        return [f"energies.csv lacks the initial configuration 0x{initial:x}"]

    # a seeded sample of rows against the per-bond sum from the geometry
    keys = sorted(energies)
    picks = [(initial, -1)] + [keys[k] for k in rng.choice(len(keys), size=min(n_sample, len(keys)), replace=False)]
    for bits, plaq in picks:
        want = bond_energy(geom.bonds, geom.plaquettes, couplings, bits, plaq)
        if abs(energies[(bits, plaq)] - want) > 1e-9:
            problems.append(f"energy of (0x{bits:x}, {plaq}) is {energies[(bits, plaq)]!r}, per-bond sum {want!r}")

    _, c_rows = read_csv(outdir / "coefficients.csv")
    series: dict[str, list[tuple[float, complex]]] = {}
    for label, t, re, im in c_rows:
        series.setdefault(label, []).append((float(t), complex(float(re), float(im))))
    if len(series) != geom.n_plaquettes:
        problems.append(f"{len(series)} series, expected one per plaquette ({geom.n_plaquettes})")
    n_connected = 0
    for label, pts in series.items():
        plaq = int(label.split(":")[1][1:])
        e_t = energies.get((initial, plaq))
        if e_t is None:
            problems.append(f"{label}: no energies.csv row")
            continue
        t = np.array([p[0] for p in pts])
        c = np.array([p[1] for p in pts])
        if np.all(c == 0):
            continue
        n_connected += 1
        ratio = c[1:] / unit_coefficient(e_t - e_init - omega, t[1:])
        spread = float(np.max(np.abs(ratio - ratio[0])))
        if spread > 1e-9 * abs(ratio[0]):
            problems.append(f"{label}: c/closed form varies by {spread:.3e} over the grid")
        if abs(abs(ratio[0]) - d) > 1e-12 * d:
            problems.append(f"{label}: |M| = {abs(ratio[0])!r}, drive amplitude {d!r}")
    if n_connected == 0:
        problems.append("no series is connected to the initial configuration")
    return problems


def check_sweep(outdir: Path, omega0: float, t_max: float) -> list[str]:
    """sweep.csv follows sin^2(delta T/2)/delta^2 and peaks next to omega0."""
    problems = []
    _, rows = read_csv(outdir / "sweep.csv")
    omegas = np.array([float(r[0]) for r in rows])
    weights = np.array([float(r[1]) for r in rows])
    law = np.abs(unit_coefficient(omega0 - omegas, t_max)) ** 2
    k_peak = int(np.argmax(weights))
    got = weights / weights[k_peak]
    want = law / law[k_peak]
    dev = float(np.max(np.abs(got - want)))
    if dev > 1e-9:
        problems.append(f"weight/weight(peak) departs from sin^2(dT/2)/d^2 by {dev:.3e}")
    summary = read_json(outdir / "sweep_summary.json")
    dist = np.abs(omegas - omega0)
    nearest = omegas[np.isclose(dist, dist.min(), rtol=0, atol=1e-12)]
    if not np.any(nearest == summary["omega_peak"]):
        problems.append(f"omega_peak {summary['omega_peak']!r} is not the grid point nearest omega0 {omega0!r}")
    shards = sorted(p.name for p in outdir.glob("sweep_shard_*"))
    if shards:
        problems.append(f"shard files left behind: {shards}")
    return problems


def check_custom_phase(outdir: Path, evolve_dir: Path, label: str, d: float,
                       omega: float, theta: float, t_drive: np.ndarray) -> list[str]:
    """A phase run driven by samples of D exp(-i(omega t + theta)) agrees with
    exp(-i theta) times the exponential-drive series of the same target,
    within the linear-interpolation error of the samples."""
    _, rows = read_csv(outdir / "phase.csv")
    t = np.array([float(r[0]) for r in rows])
    c_custom = np.array([float(r[1]) * np.exp(1j * (float(r[3]) + theta)) for r in rows])
    _, c_rows = read_csv(evolve_dir / "coefficients.csv")
    c_exp = np.array([complex(float(r[2]), float(r[3])) for r in c_rows if r[0] == label])
    if len(c_exp) != len(t):
        return [f"evolve series {label} has {len(c_exp)} samples, phase.csv {len(t)}"]
    h = float(np.max(np.diff(t_drive)))
    # |B - B_lin| <= D omega^2 h^2 / 8, integrated over [0, t]
    bound = t * d * omega**2 * h**2 / 8.0 + 1e-9
    dev = np.abs(c_custom - c_exp)
    if np.any(dev > bound):
        k = int(np.argmax(dev / bound))
        return [f"custom drive differs from the exponential drive by {dev[k]:.3e} at t={t[k]:.4g}, bound {bound[k]:.3e}"]
    return []


# ---------------------------------------------------------- oracle_xcheck

def check_richardson(result, tol: float) -> list[str]:
    if not result.error_estimate <= tol:
        return [f"Richardson estimate {result.error_estimate:.3e} above tol {tol:.1e}"]
    return []


def check_second_order(report, d: float, t: float) -> list[str]:
    """First-order error is second order in the drive: 0 < err <= (D t)^2."""
    err = report.overall_max_error
    if not 0.0 < err <= (d * t) ** 2:
        return [f"exact-vs-first-order error {err:.3e} outside (0, (D t)^2 = {(d * t) ** 2:.3e}]"]
    return []


def check_halving(err_d: float, err_half: float) -> list[str]:
    ratio = err_d / err_half if err_half > 0 else math.inf
    if not 3.0 <= ratio <= 5.0:
        return [f"halving D cut the first-order error by {ratio:.3f}, outside [3, 5]"]
    return []


def check_undriven(result, geom, couplings: dict, psi0: np.ndarray, atol: float = 1e-7) -> list[str]:
    """Undriven oracle run against exp(-i H0 t) psi0 by eigendecomposition."""
    h = kron_h0(geom.n_sites, geom.bonds, couplings)
    evals, vecs = np.linalg.eigh(h)
    coeffs = vecs.conj().T @ psi0
    worst = 0.0
    for t, ket in zip(result.times, result.kets):
        exact = vecs @ (np.exp(-1j * evals * t) * coeffs)
        worst = max(worst, float(np.max(np.abs(ket - exact))))
    if worst > atol:
        return [f"undriven run departs from exp(-iH0 t) psi0 by {worst:.3e}"]
    return []


# ------------------------------------------------------------ thermal_mix

def check_thermal(outdir: Path, kets: list[np.ndarray], kt: float, n_sites: int) -> list[str]:
    """thermal.json against K x K Gram-matrix forms of the same mixture."""
    problems = []
    doc = read_json(outdir / "thermal.json")
    energies = np.array(doc["energies"])
    p = np.array(doc["weights"])
    boltz = np.exp(-(energies - energies.min()) / kt)
    boltz /= boltz.sum()
    if np.max(np.abs(p - boltz)) > 1e-12:
        problems.append(f"weights depart from Boltzmann weights by {np.max(np.abs(p - boltz)):.3e}")
    if abs(doc["trace"] - 1.0) > 1e-12:
        problems.append(f"trace {doc['trace']!r} is not 1")
    if len(kets) != len(p):
        return problems + [f"{len(p)} weights for {len(kets)} members"]
    overlaps = np.array([[np.vdot(a, b) for b in kets] for a in kets])
    purity = float(np.sum(np.outer(p, p) * np.abs(overlaps) ** 2))
    if abs(doc["purity"] - purity) > 1e-10:
        problems.append(f"purity {doc['purity']!r}, Gram form {purity!r}")
    gram = np.sqrt(np.outer(p, p)) * overlaps
    s_mix = von_neumann(np.linalg.eigvalsh(gram))
    if abs(doc["mixture_entropy"] - s_mix) > 1e-9:
        problems.append(f"mixture_entropy {doc['mixture_entropy']!r}, K x K form {s_mix!r}")
    rho_a = sum(w * (m @ m.conj().T) for w, m in zip(p, (split_ab(k, n_sites) for k in kets)))
    s_a = von_neumann(np.linalg.eigvalsh(rho_a))
    n_a = n_sites // 2
    s_rep = doc["sublattice_entropy"]
    if not -1e-12 <= s_rep <= n_a * math.log(2.0) + 1e-12:
        problems.append(f"sublattice_entropy {s_rep!r} outside [0, {n_a} ln 2]")
    if abs(s_rep - s_a) > 1e-9:
        problems.append(f"sublattice_entropy {s_rep!r}, reshape form {s_a!r}")
    return problems


def check_entropy_csv(outdir: Path, n_samples: int) -> list[str]:
    _, rows = read_csv(outdir / "entropy.csv")
    values = np.array([float(r[1]) for r in rows])
    if len(values) != n_samples:
        return [f"entropy.csv has {len(values)} rows, expected {n_samples}"]
    if np.max(np.abs(values)) > 1e-10:
        return [f"first-order state is a product across A|B, yet S_A reaches {np.max(np.abs(values)):.3e}"]
    return []


# ---------------------------------------------------------- desk_validate

def check_validate(outdir: Path, exit_code: int) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"validate exited {exit_code}")
    doc = read_json(outdir / "validate.json")
    if doc["passed"] != 10 or doc["failed"] != 0:
        problems.append(f"validate reports {doc['passed']} passed, {doc['failed']} failed")
    order = read_json(outdir / "oracle_report.json")["convergence_order"]
    if not abs(order - 4.0) <= 0.1:
        problems.append(f"convergence_order {order!r} not within 0.1 of 4")
    return problems
