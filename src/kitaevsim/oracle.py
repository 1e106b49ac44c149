"""Ground-truth engine: exact time evolution in the full Hilbert space.

Integrates i d/dt psi = (H0 + B(t) S) psi with a classical fixed-step
RK4 stepper wrapped in a step-doubling refinement loop: the substep
count per output interval doubles until the Richardson error estimate
meets the tolerance.  The fixed-step core is exposed so convergence
order can be measured directly by step halving.

Note the exponential drive B(t) = D exp(-i omega t) multiplies a
Hermitian Pauli string by a complex scalar, so the driven generator is
not Hermitian and the exact norm is conserved only at D = 0.  Norm
drift is therefore recorded for every run but enforced only for
undriven (unitary) evolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import CouplingParams, apply_h0, drive_string
from .lattice import LatticeGeometry
from .pauli import require_hilbert, string_term
from .perturbation import CoefficientSeries, DriveSpec

_MAX_TOTAL_STEPS = 1 << 22
# substeps per output interval of exact_evolve's first (coarsest) pass
_START_SUBSTEPS = 4


@dataclass
class EvolutionResult:
    times: np.ndarray
    kets: list[np.ndarray]
    norm_drift: float
    energy_drift: float | None  # only meaningful for D = 0 runs
    substeps: int
    error_estimate: float


@dataclass
class TdptErrorReport:
    """Exact-vs-first-order coefficient comparison.

    ``overall_max_error`` is the maximum over the whole ansatz: target
    coefficients against their first-order series and the initial state
    against its zeroth-order amplitude one.  The initial-state depletion
    is the generic second-order effect, so it is what makes the overall
    error scale as the square of the drive amplitude.
    """

    labels: list[str]
    max_error: dict[str, float]       # per target label
    initial_deviation: float          # max |c_exact,initial - 1|
    overall_max_error: float


def _rhs(geom: LatticeGeometry, params: CouplingParams, drive: DriveSpec):
    """Compile f(t, psi) = -i (H0 + B(t) S) psi once for this lattice.

    Every Pauli string acts as ``phase[k] * psi[k ^ mask]``
    (:func:`string_term`): the z bonds sum into one diagonal, the x and
    y bonds into one (index, coefficient) pair per distinct mask, and
    the drive string S is one more pair scaled by B(t).
    """
    n = geom.n_sites
    k = np.arange(2**n)
    diag = np.zeros(2**n)
    by_mask: dict[int, np.ndarray] = {}
    for i, j, comp in geom.bonds:
        coupling = params.j(comp)
        if coupling == 0.0:
            continue
        mask, phase = string_term(((i, comp), (j, comp)), n)
        # two-site x, y and z strings all have real phases
        term = coupling * phase.real
        if mask == 0:
            diag += term
        else:
            by_mask[mask] = by_mask.get(mask, 0.0) + term
    pairs = [(k ^ mask, coeff) for mask, coeff in by_mask.items()]

    driven = drive.kind == "custom" or drive.amplitude != 0.0
    if driven:
        mask, drive_phase = string_term(drive_string(geom, drive.plaquette), n)
        drive_idx = k ^ mask

    def f(t: float, psi: np.ndarray) -> np.ndarray:
        out = diag * psi
        for idx, coeff in pairs:
            out += coeff * psi[idx]
        if driven:
            out += complex(drive.b_of(t)) * (drive_phase * psi[drive_idx])
        out *= -1j
        return out

    return f


def evolve_fixed_substeps(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    psi0: np.ndarray,
    times,
    substeps: int,
) -> list[np.ndarray]:
    """RK4 with a fixed number of substeps per output interval."""
    times = np.asarray(times, dtype=float)
    f = _rhs(geom, params, drive)
    psi = psi0.astype(complex, copy=True)
    kets = [psi.copy()]
    for k in range(len(times) - 1):
        h = (times[k + 1] - times[k]) / substeps
        t = times[k]
        for _ in range(substeps):
            k1 = f(t, psi)
            k2 = f(t + 0.5 * h, psi + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, psi + 0.5 * h * k2)
            k4 = f(t + h, psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        kets.append(psi.copy())
    return kets


def exact_evolve(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    psi0: np.ndarray,
    times,
    tol: float = 1e-9,
) -> EvolutionResult:
    """Exact Schrodinger evolution sampled on ``times``.

    Substeps double until the step-doubling (Richardson) estimate of the
    finer run's error drops below ``tol``.
    """
    times = np.asarray(times, dtype=float)
    require_hilbert(geom.n_sites)
    if len(psi0) != 2**geom.n_sites:
        raise ValueError("psi0 dimension does not match the lattice")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    if not tol > 0:  # a NaN tolerance is never met
        raise ValueError("tolerance must be positive")
    if len(times) < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")

    n_intervals = len(times) - 1
    substeps = _START_SUBSTEPS
    prev = evolve_fixed_substeps(geom, params, drive, psi0, times, substeps)
    while True:
        if 2 * substeps * n_intervals > _MAX_TOTAL_STEPS:
            raise RuntimeError(
                f"step refinement exhausted at {substeps} substeps/interval "
                f"without reaching tol={tol}"
            )
        cur = evolve_fixed_substeps(geom, params, drive, psi0, times, 2 * substeps)
        diff = max(
            float(np.max(np.abs(a - b))) for a, b in zip(prev, cur)
        )
        # RK4: the finer run's error is ~ diff / 15
        estimate = diff / 15.0
        substeps *= 2
        prev = cur
        if estimate <= tol:
            break

    norms = np.array([np.linalg.norm(k) for k in prev])
    norm_drift = float(np.max(np.abs(norms - 1.0)))

    undriven = drive.kind == "exponential" and drive.amplitude == 0.0
    energy_drift = None
    if undriven:
        e = np.array(
            [np.vdot(k, apply_h0(geom, params, k)).real for k in prev]
        )
        energy_drift = float(np.max(np.abs(e - e[0])))
        if norm_drift > max(1e-8, 10.0 * tol):
            raise RuntimeError(
                f"unitary run norm drift {norm_drift:.3e} exceeds bound"
            )

    return EvolutionResult(
        times=times,
        kets=prev,
        norm_drift=norm_drift,
        energy_drift=energy_drift,
        substeps=substeps,
        error_estimate=float(estimate),
    )


def project_and_compare(
    result: EvolutionResult,
    basis_kets: list[np.ndarray],
    tdpt: list[CoefficientSeries],
) -> TdptErrorReport:
    """Project the exact evolution onto the active basis and diff with TDPT.

    ``basis_kets`` holds the initial ket first, then one ket per series in
    ``tdpt`` order.  The dynamical phase exp(+i E t) is stripped so the
    comparison happens between interaction-picture coefficients.
    """
    if len(basis_kets) != len(tdpt) + 1:
        raise ValueError("need one basis ket per series plus the initial ket")
    gram = np.array(
        [[np.vdot(a, b) for b in basis_kets] for a in basis_kets]
    )
    if np.max(np.abs(gram - np.eye(len(basis_kets)))) > 1e-10:
        raise ValueError("active basis is not orthonormal to 1e-10")
    for series in tdpt:
        if not np.allclose(series.times, result.times, rtol=0, atol=1e-12):
            raise ValueError("series grid does not match the evolution grid")

    times = result.times
    e_init = tdpt[0].e_initial if tdpt else 0.0
    c_init = np.array(
        [
            np.vdot(basis_kets[0], ket) * np.exp(1j * e_init * t)
            for t, ket in zip(times, result.kets)
        ]
    )
    initial_deviation = float(np.max(np.abs(c_init - 1.0)))

    max_error: dict[str, float] = {}
    labels = []
    overall = initial_deviation
    for m, series in enumerate(tdpt):
        c_exact = np.array(
            [
                np.vdot(basis_kets[m + 1], ket) * np.exp(1j * series.e_target * t)
                for t, ket in zip(times, result.kets)
            ]
        )
        err = float(np.max(np.abs(c_exact - series.values)))
        labels.append(series.label)
        max_error[series.label] = err
        overall = max(overall, err)
    return TdptErrorReport(
        labels=labels,
        max_error=max_error,
        initial_deviation=initial_deviation,
        overall_max_error=overall,
    )


def convergence_ratio(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    psi0: np.ndarray,
    t_end: float,
    coarse_substeps: int = 32,
    samples: int = 9,
) -> tuple[float, float, float]:
    """Step-halving error ratio against a tol=1e-12 reference run.

    Returns (err_coarse, err_fine, ratio); ratio ~ 16 for an order-4
    integrator in the asymptotic regime.
    """
    times = np.linspace(0.0, t_end, samples)
    ref = exact_evolve(geom, params, drive, psi0, times, tol=1e-12).kets
    coarse = evolve_fixed_substeps(geom, params, drive, psi0, times, coarse_substeps)
    fine = evolve_fixed_substeps(geom, params, drive, psi0, times, 2 * coarse_substeps)
    err_c = max(float(np.max(np.abs(a - b))) for a, b in zip(coarse, ref))
    err_f = max(float(np.max(np.abs(a - b))) for a, b in zip(fine, ref))
    return err_c, err_f, err_c / err_f
