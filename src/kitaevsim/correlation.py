"""Two-time spin correlations: coefficient-product formula and exact scan.

The formula engine sums A_m(t) A_m(t0) exp(-i(phi_m(t) - phi_m(t0) - E_m t))
over the active target states, which equals sum conj(c_m(t)) c_m(t0)
exp(+i E_m t).  First-order coefficients vanish identically at t = 0, so
the reference time t0 is kept general; evaluating at the literal t0 = 0
yields zero and is flagged.

The exact engine evaluates <psi(t)| U(t)^dag sigma_i^a U(t) sigma_j^b |psi(t)>
with U from the exact-evolution oracle; it makes no locality or
component assumption, so the nearest-neighbor same-component selection
rule can be *measured* instead of presumed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonian import CouplingParams
from .lattice import LatticeGeometry
from .manifold import FlipConfig, build_product_ket
from .oracle import _Generator, exact_evolve, propagate
from .pauli import apply_pauli_string, require_hilbert
from .perturbation import CoefficientSeries, DriveSpec
from .phase import SubGeometricPhase


@dataclass
class CorrelationRecord:
    site_i: int
    site_j: int
    alpha: str
    beta: str
    t: float
    t0: float
    value: complex
    source: str  # "formula" | "exact"


def correlation_formula(
    coeffs: list[CoefficientSeries],
    phases: list[SubGeometricPhase],
    t: float,
    t0: float,
) -> complex:
    """Coefficient-product correlation over the active target states."""
    if len(coeffs) != len(phases):
        raise ValueError("need one phase series per coefficient series")
    total = 0.0 + 0.0j
    all_zero_ref = True
    for series, phase in zip(coeffs, phases):
        k = series.index_of(t)
        k0 = series.index_of(t0)
        if phase.singular[k] or phase.singular[k0]:
            # a vanishing modulus kills the term; the argument is undefined
            if not phase.singular[k0]:
                all_zero_ref = False
            continue
        all_zero_ref = False
        a_t = phase.modulus[k]
        a_0 = phase.modulus[k0]
        arg = phase.angle[k] - phase.angle[k0] - series.e_target * t
        total += a_t * a_0 * np.exp(-1j * arg)
    if all_zero_ref and coeffs:
        warnings.warn(
            "all reference amplitudes vanish at t0 (first-order coefficients "
            "are zero at t=0); correlation is degenerately zero",
            stacklevel=2,
        )
    return complex(total)


def correlation_exact_scan(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    initial: FlipConfig,
    pairs,
    components,
    t: float,
    tol: float = 1e-9,
) -> list[CorrelationRecord]:
    """Heisenberg-picture correlation table from exact evolution.

    For each (i, j) pair and (alpha, beta) component combination the
    value is <chi| sigma_i^alpha |eta_jb> with chi = U(t) psi(t) and
    eta_jb = U(t) sigma_j^beta psi(t); this is the adjoint identity for
    <psi(t)| sigma_i^alpha(t) sigma_j^beta(0) |psi(t)> and needs no
    operator inversion, so it stays valid for the non-unitary driven
    evolution.
    """
    require_hilbert(geom.n_sites)
    pairs = [(int(i), int(j)) for i, j in pairs]
    components = [(a, b) for a, b in components]
    psi0 = build_product_ket(geom, initial)

    if t == 0.0:
        psi_t = psi0
        chi = psi0

        def u_of_t(vec: np.ndarray) -> np.ndarray:
            return vec

    else:
        times = np.linspace(0.0, float(t), 9)
        f = _Generator(geom, params, drive)
        res = exact_evolve(geom, params, drive, psi0, times, tol=tol, rhs=f)
        psi_t = res.kets[-1]

        def u_of_t(vec: np.ndarray) -> np.ndarray:
            # the same steps the accepted passes took, interval by interval
            return propagate(vec, times, res.substeps, rhs=f)

        chi = u_of_t(psi_t)

    records = []
    for j, beta in sorted({(j, b) for _, j in pairs for _, b in components}):
        eta = u_of_t(apply_pauli_string(psi_t, ((j, beta),)))
        for i, jj in pairs:
            if jj != j:
                continue
            for alpha, bb in components:
                if bb != beta:
                    continue
                val = complex(np.vdot(chi, apply_pauli_string(eta, ((i, alpha),))))
                records.append(
                    CorrelationRecord(
                        site_i=i, site_j=j, alpha=alpha, beta=beta,
                        t=float(t), t0=0.0, value=val, source="exact",
                    )
                )
    return records


def selection_rule_report(records: list[CorrelationRecord], tol: float) -> dict:
    """Measure the nearest-neighbor same-component claim on a scan table.

    Reports the largest same-component and cross-component magnitudes;
    ``consistent`` is True when every cross-component entry stays below
    tol.  This is a diagnostic: the product-state manifold is not the
    exact eigenbasis, so deviations are reported, not asserted away.
    """
    same = [r for r in records if r.alpha == r.beta]
    cross = [r for r in records if r.alpha != r.beta]
    max_same = max((abs(r.value) for r in same), default=0.0)
    max_cross = max((abs(r.value) for r in cross), default=0.0)
    offenders = [
        (r.site_i, r.site_j, r.alpha, r.beta, abs(r.value))
        for r in cross
        if abs(r.value) > tol
    ]
    return {
        "n_records": len(records),
        "max_same_component": max_same,
        "max_cross_component": max_cross,
        "tolerance": tol,
        "consistent": len(offenders) == 0,
        "offenders": offenders,
    }
