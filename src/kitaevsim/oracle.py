"""Ground-truth engine: exact time evolution in the full Hilbert space.

Integrates i d/dt psi = (H0 + B(t) S) psi with a classical fixed-step
RK4 stepper under per-interval Richardson step control: each output
interval is refined on its own, from the ket accepted at its start, until
the step-doubling estimate of its error fits its share of the tolerance
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4).  The right-hand
side is compiled once per run.  The fixed-step core is exposed so
convergence order can be measured directly by step halving.

Note the exponential drive B(t) = D exp(-i omega t) multiplies a
Hermitian Pauli string by a complex scalar, so the driven generator is
not Hermitian and the exact norm is conserved only at D = 0.  Norm
drift is therefore recorded for every run but enforced only for
undriven (unitary) evolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import CouplingParams, apply_h0, drive_string
from .lattice import LatticeGeometry
from .pauli import require_hilbert, string_term
from .perturbation import CoefficientSeries, DriveSpec

# RK4 steps one exact_evolve may take over all its passes
_MAX_TOTAL_STEPS = 1 << 22
# largest factor by which one estimate may raise the substep count
_MAX_GROWTH = 16


@dataclass
class EvolutionResult:
    times: np.ndarray
    kets: list[np.ndarray]
    norm_drift: float
    energy_drift: float | None  # only meaningful for D = 0 runs
    # accepted RK4 substeps per output interval (per piece for a custom drive)
    substeps: tuple[int, ...]
    error_estimate: float  # sum of the accepted intervals' estimates
    rk4_steps: int  # over every pass, rejected ones included


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
    *,
    rhs=None,
) -> list[np.ndarray]:
    """RK4 with a fixed number of substeps per output interval.

    ``rhs`` is a right-hand side that :func:`_rhs` compiled for the same
    lattice, couplings and drive; it is compiled here when omitted.
    """
    times = np.asarray(times, dtype=float)
    f = _rhs(geom, params, drive) if rhs is None else rhs
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


def _interval_grid(drive: DriveSpec, t0: float, t1: float) -> np.ndarray:
    """[t0, t1] split at the custom drive's sample times inside it.

    A custom B(t) interpolates linearly, so its slope jumps at each
    sample; an RK4 step across a jump loses its fourth order and with it
    the Richardson estimate.  Every step ends on the samples instead.
    """
    if drive.kind != "custom":
        return np.array([t0, t1])
    samples = drive.t_samples
    inside = samples[(samples > t0) & (samples < t1)]
    return np.concatenate(([t0], inside, [t1]))


def propagate(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    psi0: np.ndarray,
    times,
    substeps,
    *,
    rhs,
) -> np.ndarray:
    """Final ket over ``times`` with the step choice of :func:`exact_evolve`:
    ``substeps[k]`` RK4 substeps on each piece of output interval k, as in
    the accepted :attr:`EvolutionResult.substeps`, and its compiled ``rhs``."""
    times = np.asarray(times, dtype=float)
    psi = psi0
    for k, steps in enumerate(substeps):
        grid = _interval_grid(drive, times[k], times[k + 1])
        psi = evolve_fixed_substeps(geom, params, drive, psi, grid, steps, rhs=rhs)[-1]
    return psi


def _next_substeps(substeps: int, estimate: float, target: float) -> int:
    """Substeps that bring an RK4 estimate to ``target`` by the h^4 law."""
    if not math.isfinite(estimate):
        return _MAX_GROWTH * substeps
    factor = min((estimate / target) ** 0.25, _MAX_GROWTH)
    return max(1, math.ceil(substeps * factor))


def exact_evolve(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    psi0: np.ndarray,
    times,
    tol: float = 1e-9,
    *,
    rhs=None,
) -> EvolutionResult:
    """Exact Schrodinger evolution sampled on ``times``.

    Each output interval starts from the ket accepted at its left end.
    A coarse pass of s substeps and a fine pass of 2s give the
    Richardson estimate max|coarse - fine| / 15 of the fine pass's
    error; the fine pass is accepted once that estimate is within the
    interval's share tol * dt_k / (t_end - t_0) of the tolerance, so the
    accepted estimates sum to at most ``tol``.  The next s, and a
    rejected interval's retry, follow the h^4 law toward half the share;
    the first interval starts at one substep.  A custom drive's sample
    times split an interval into pieces of s (and 2s) substeps each.
    ``rhs`` is as in :func:`evolve_fixed_substeps` and is compiled once
    here when omitted.
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

    f = _rhs(geom, params, drive) if rhs is None else rhs
    span = times[-1] - times[0]
    kets = [psi0.astype(complex, copy=True)]
    accepted: list[int] = []
    estimate = 0.0
    rk4_steps = 0
    s = 1
    for k in range(len(times) - 1):
        grid = _interval_grid(drive, times[k], times[k + 1])
        pieces = len(grid) - 1
        budget = tol * (times[k + 1] - times[k]) / span
        while True:
            if rk4_steps + 3 * s * pieces > _MAX_TOTAL_STEPS:
                raise RuntimeError(
                    f"step refinement exhausted at {2 * s} substeps on interval "
                    f"{k} without reaching tol={tol}"
                )
            coarse = evolve_fixed_substeps(geom, params, drive, kets[-1], grid, s, rhs=f)[-1]
            fine = evolve_fixed_substeps(geom, params, drive, kets[-1], grid, 2 * s, rhs=f)[-1]
            rk4_steps += 3 * s * pieces
            # RK4: the fine pass's error is ~ diff / 15
            est = float(np.max(np.abs(coarse - fine))) / 15.0
            s_next = _next_substeps(s, est, 0.5 * budget)
            if est <= budget:
                break
            s = s_next
        kets.append(fine)
        accepted.append(2 * s)
        estimate += est
        s = s_next

    norms = np.array([np.linalg.norm(k) for k in kets])
    norm_drift = float(np.max(np.abs(norms - 1.0)))

    undriven = drive.kind == "exponential" and drive.amplitude == 0.0
    energy_drift = None
    if undriven:
        e = np.array(
            [np.vdot(k, apply_h0(geom, params, k)).real for k in kets]
        )
        energy_drift = float(np.max(np.abs(e - e[0])))
        if norm_drift > max(1e-8, 10.0 * tol):
            raise RuntimeError(
                f"unitary run norm drift {norm_drift:.3e} exceeds bound"
            )

    return EvolutionResult(
        times=times,
        kets=kets,
        norm_drift=norm_drift,
        energy_drift=energy_drift,
        substeps=tuple(accepted),
        error_estimate=estimate,
        rk4_steps=rk4_steps,
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
    f = _rhs(geom, params, drive)
    ref = exact_evolve(geom, params, drive, psi0, times, tol=1e-12, rhs=f).kets
    coarse = evolve_fixed_substeps(geom, params, drive, psi0, times, coarse_substeps, rhs=f)
    fine = evolve_fixed_substeps(geom, params, drive, psi0, times, 2 * coarse_substeps, rhs=f)
    err_c = max(float(np.max(np.abs(a - b))) for a, b in zip(coarse, ref))
    err_f = max(float(np.max(np.abs(a - b))) for a, b in zip(fine, ref))
    return err_c, err_f, err_c / err_f
