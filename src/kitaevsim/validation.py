"""Acceptance checks: the property suite behind the ``validate`` command.

Each check pins its own scenario (lattice, couplings, drive, grid) and
its tolerance, runs at desk scale, and reports one pass/fail line.  The
same functions back tests/test_acceptance.py, so the CLI and the test
suite cannot drift apart.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .correlation import (
    correlation_exact_scan,
    correlation_formula,
    selection_rule_report,
)
from .density import (
    assemble_state,
    density_matrix,
    entropy_of_density,
    initial_label,
    reduced_density_matrix,
    reduced_entropy,
    thermal_weights,
)
from .hamiltonian import (
    CouplingParams,
    dense_h0,
    energy_expectation,
    ground_projection,
    plaquette_expectation,
    plaquette_string,
)
from .lattice import build_lattice
from .manifold import FlipConfig, build_product_ket, enumerate_weight_class, excite
from .oracle import convergence_ratio, exact_evolve, project_and_compare
from .pauli import string_term
from .perturbation import (
    CoefficientSeries,
    DriveSpec,
    coefficient_closed_form,
    coefficient_quadrature,
    connected_targets,
    evolve_coefficients,
)
from .phase import decompose, decompose_values, runs, stability_intervals


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.criterion:2d} {self.name}: {self.detail}"


def check_manifold_counting() -> CheckResult:
    """Weight-class sizes equal binomials and sum to 2^N for N = 4, 9."""
    ok = True
    parts = []
    for n in (4, 9):
        sizes = [len(enumerate_weight_class(n, k)) for k in range(n + 1)]
        expected = [math.comb(n, k) for k in range(n + 1)]
        total = sum(sizes)
        ok = ok and sizes == expected and total == 2**n
        parts.append(f"N={n}: total {total}")
    return CheckResult(1, "manifold counting", ok, "; ".join(parts))


def plaquette_deviations(h: np.ndarray, mask: int, phase: np.ndarray) -> tuple[float, float]:
    """max|[w, H]| and the spectrum deviation of the string w = (mask, phase).

    Row k of w holds phase[k] in column k ^ mask, so (H w)[a, c] =
    H[a, c ^ mask] phase[c ^ mask] and (w H)[a, c] = phase[a] H[a ^ mask, c]:
    the commutator is two gathers of the dense H.  w splits into the 2x2
    blocks {k, k ^ mask} (1x1 for mask 0) with off-diagonal entries
    phase[k] and phase[k ^ mask], so its eigenvalues are
    +-sqrt(phase[k] phase[k ^ mask]) and it is Hermitian when
    phase[k] = conj(phase[k ^ mask]).  The spectrum deviation is the
    larger of max|phase[k] - conj(phase[k ^ mask])| and the largest
    distance of an eigenvalue modulus from 1.
    """
    idx = np.arange(len(phase)) ^ mask
    partner = phase[idx]
    comm = float(np.max(np.abs(h[:, idx] * partner - phase[:, None] * h[idx, :])))
    hermiticity = float(np.max(np.abs(phase - partner.conj())))
    modulus = float(np.max(np.abs(np.sqrt(np.abs(phase * partner)) - 1.0)))
    return comm, max(hermiticity, modulus)


def check_plaquette_algebra() -> CheckResult:
    """Commutators, w_p spectra, and flux expectations on the 2x2 torus."""
    geom = build_lattice(2, 2)
    params = CouplingParams(jx=1.0, jy=0.8, jz=1.2)
    h = dense_h0(geom, params)

    max_comm = 0.0
    max_spec = 0.0
    for p in range(geom.n_plaquettes):
        comm, spec = plaquette_deviations(h, *string_term(plaquette_string(geom, p), geom.n_sites))
        max_comm = max(max_comm, comm)
        max_spec = max(max_spec, spec)

    # flux sector: configs realized per the ground-state construction, i.e.
    # projected onto the common w_p = +1 sector
    max_flux_dev = 0.0
    configs = [FlipConfig(0, 4)] + [FlipConfig(1 << q, 4) for q in range(4)]
    for config in configs:
        psi, _ = ground_projection(geom, build_product_ket(geom, config))
        for p in range(geom.n_plaquettes):
            max_flux_dev = max(
                max_flux_dev, abs(plaquette_expectation(geom, p, psi) - 1.0)
            )

    ok = max_comm < 1e-12 and max_spec < 1e-10 and max_flux_dev < 1e-10
    return CheckResult(
        2,
        "plaquette algebra",
        ok,
        f"max|[w,H0]|={max_comm:.2e}, spectrum dev={max_spec:.2e}, "
        f"flux dev={max_flux_dev:.2e}",
    )


def check_closed_form_vs_quadrature() -> CheckResult:
    """Closed form reproduced by Gauss-Legendre quadrature, resonance included."""
    worst_rel = 0.0
    for d in (0.1, 1.0):
        for delta in (0.5, 1.0, 2.5):
            drive = DriveSpec.exponential(d, 0.0)
            for x in (0.1, 0.3, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 11.0, 14.0, 17.0, 20.0):
                t = x / delta
                c = coefficient_closed_form(1, d, delta, t)
                q = coefficient_quadrature(1.0, drive, delta, t)
                worst_rel = max(worst_rel, abs(q - c) / abs(c))

    worst_abs = 0.0
    for d in (0.1, 1.0):
        drive = DriveSpec.exponential(d, 0.0)
        for delta, t in ((1e-5, 5.0), (1e-6, 10.0), (-1e-5, 3.0), (0.0, 7.0)):
            c = coefficient_closed_form(1, d, delta, t)
            q = coefficient_quadrature(1.0, drive, delta, t)
            worst_abs = max(worst_abs, abs(q - c))

    ok = worst_rel < 1e-8 and worst_abs < 1e-10
    return CheckResult(
        3,
        "closed form vs quadrature",
        ok,
        f"max rel err {worst_rel:.2e} (delta*t in [0.1,20]), "
        f"max abs err {worst_abs:.2e} (resonance branch)",
    )


@functools.lru_cache(maxsize=None)
def _tdpt_scenario(d: float):
    """2x2 scenario at weak coupling so basis non-stationarity stays small."""
    geom = build_lattice(2, 2)
    j = 1e-3
    initial = FlipConfig(0, 4)
    probe = CouplingParams(jx=j, jy=j, jz=j, d=d)
    omega0 = energy_expectation(geom, probe, initial, excite(initial, 0)) - (
        energy_expectation(geom, probe, initial)
    )
    omega = omega0 - 1.0  # detuning fixed at 1
    params = CouplingParams(jx=j, jy=j, jz=j, d=d, omega=omega)
    drive = DriveSpec.exponential(d, omega, plaquette=0)
    times = np.linspace(0.0, 2.0 * np.pi, 33)
    targets = connected_targets(geom, params, initial, 0)
    tdpt = evolve_coefficients(geom, params, drive, initial, targets, times)
    psi0 = build_product_ket(geom, initial)
    basis = [psi0] + [build_product_ket(geom, tg.base, tg) for tg in targets]
    res = exact_evolve(geom, params, drive, psi0, times, tol=1e-11)
    return project_and_compare(res, basis, tdpt)


def check_tdpt_scaling() -> CheckResult:
    """Halving the drive amplitude cuts the first-order error ~4x."""
    err_hi = _tdpt_scenario(0.02).overall_max_error
    err_lo = _tdpt_scenario(0.01).overall_max_error
    ratio = err_hi / err_lo
    ok = 3.0 <= ratio <= 5.0
    return CheckResult(
        4,
        "first-order validity",
        ok,
        f"err(D=0.02)={err_hi:.3e}, err(D=0.01)={err_lo:.3e}, ratio={ratio:.3f}",
    )


def check_phase_law() -> CheckResult:
    """Unwrapped argument law and growth/decay intervals, exponential drive."""
    delta, d = 1.0, 1.0
    times = np.linspace(0.0, 8.0 * np.pi, 1601)
    step = times[1] - times[0]
    values = coefficient_closed_form(1, d, delta, times)
    phase = decompose_values(times, values)
    law = delta * times / 2.0 - np.pi / 2.0
    diff = phase.angle - law

    # arcs = maximal non-singular runs between zeros of the modulus
    first, last = runs(phase.singular)
    arcs = [(a0, a1) for a0, a1 in zip(first.tolist(), last.tolist()) if not phase.singular[a0]]

    law_dev = 0.0
    branch_dev = 0.0
    first_arc_dev = 0.0
    for n_arc, (a0, a1) in enumerate(arcs):
        seg = diff[a0 : a1 + 1]
        law_dev = max(law_dev, float(np.max(np.abs(seg - seg[0]))))
        # per-arc constant is a multiple of pi: the nonnegative-modulus
        # convention flips the argument branch by pi at each zero of A
        branch_dev = max(
            branch_dev, abs(seg[0] - np.pi * round(seg[0] / np.pi))
        )
        if n_arc == 0:
            first_arc_dev = float(np.max(np.abs(seg)))

    intervals = stability_intervals(phase)
    kinds = [name for _, _, name in intervals]
    alternates = all(
        kinds[k] == ("GROWING" if k % 2 == 0 else "DECAYING")
        for k in range(len(kinds))
    )
    boundary_dev = 0.0
    for t_start, t_end, _ in intervals:
        for t_b in (t_start, t_end):
            k = round(t_b * delta / np.pi)
            boundary_dev = max(boundary_dev, abs(t_b - k * np.pi / delta))

    ok = (
        law_dev < 1e-9
        and branch_dev < 1e-9
        and first_arc_dev < 1e-9
        and alternates
        and len(intervals) == 8
        and boundary_dev <= step + 1e-12
    )
    return CheckResult(
        5,
        "phase law and stability intervals",
        ok,
        f"law dev {law_dev:.2e}, branch dev {branch_dev:.2e}, "
        f"{len(intervals)} alternating intervals, boundary dev {boundary_dev:.3f} "
        f"(grid step {step:.3f})",
    )


def _density_scenario():
    geom = build_lattice(2, 2)
    j = 0.2
    initial = FlipConfig(0, 4)
    probe = CouplingParams(jx=j, jy=j, jz=j, d=0.05)
    omega = (
        energy_expectation(geom, probe, initial, excite(initial, 0))
        - energy_expectation(geom, probe, initial)
        - 0.8
    )
    params = CouplingParams(jx=j, jy=j, jz=j, d=0.05, omega=omega)
    drive = DriveSpec.exponential(0.05, omega, plaquette=0)
    times = np.linspace(0.0, 6.0, 25)
    targets = connected_targets(geom, params, initial, 0)
    coeffs = evolve_coefficients(geom, params, drive, initial, targets, times)
    return geom, initial, times, coeffs


def check_density_structure() -> CheckResult:
    """Diagonals are phase-free |c|^2; off-diagonals carry phase differences."""
    _, initial, times, coeffs = _density_scenario()
    t = times[17]
    state = assemble_state(coeffs, t, initial)
    rho = density_matrix(state)
    m = rho.matrix

    issues = rho.diagnostics(tol=1e-10)
    hermitian_ok = not issues

    phases = [decompose(c) for c in coeffs]
    k = coeffs[0].index_of(t)
    diag_dev = abs(m[1, 1].real - (phases[0].modulus[k] / state.norm_factor) ** 2)
    diag_dev = max(diag_dev, abs(m[0, 0].real - 1.0 / state.norm_factor**2))

    # off-diagonal argument pattern: (phi_m - phi_n) + (E_n - E_m) t
    expected = phases[0].angle[k] + (state.energies[0] - state.energies[1]) * t
    arg_dev = abs(np.exp(1j * np.angle(m[1, 0])) - np.exp(1j * expected))

    # shifting one coefficient's phase by a constant must leave every
    # diagonal entry untouched and rotate its off-diagonal row by the shift
    theta = 0.7
    shifted = [
        CoefficientSeries(
            target=c.target,
            e_target=c.e_target,
            e_initial=c.e_initial,
            times=c.times,
            values=c.values * np.exp(1j * theta),
        )
        for c in coeffs
    ]
    m_shift = density_matrix(assemble_state(shifted, t, initial)).matrix
    shift_diag_dev = float(np.max(np.abs(np.diag(m_shift) - np.diag(m))))
    rotated = m[1, 0] * np.exp(1j * theta)
    shift_offdiag_dev = abs(m_shift[1, 0] - rotated)

    ok = (
        hermitian_ok
        and diag_dev < 1e-10
        and arg_dev < 1e-10
        and shift_diag_dev < 1e-12
        and shift_offdiag_dev < 1e-12
    )
    return CheckResult(
        6,
        "density-matrix phase structure",
        ok,
        f"diag dev {diag_dev:.2e}, offdiag arg dev {arg_dev:.2e}, "
        f"phase-shift leak {max(shift_diag_dev, shift_offdiag_dev):.2e}"
        + ("" if hermitian_ok else f", issues: {issues}"),
    )


def check_entropy(seed: int = 12345) -> CheckResult:
    """Product kets, Bell pair, Schmidt duality, and entropy bounds."""
    geom = build_lattice(2, 2)
    ket = build_product_ket(geom, FlipConfig(0, 4))
    _, s_prod = reduced_entropy(geom, ket, "A")

    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    s_bell = entropy_of_density(reduced_density_matrix(bell, [0]))

    rng = np.random.default_rng(seed)
    n_a = geom.n_sites // 2
    max_dual = 0.0
    bounds_ok = True
    for _ in range(5):
        psi = rng.normal(size=256) + 1j * rng.normal(size=256)
        psi /= np.linalg.norm(psi)
        _, sa = reduced_entropy(geom, psi, "A")
        _, sb = reduced_entropy(geom, psi, "B")
        max_dual = max(max_dual, abs(sa - sb))
        bounds_ok = bounds_ok and -1e-12 <= sa <= n_a * math.log(2.0) + 1e-9

    ok = (
        abs(s_prod) < 1e-10
        and abs(s_bell - math.log(2.0)) < 1e-10
        and max_dual < 1e-9
        and bounds_ok
    )
    return CheckResult(
        7,
        "entanglement entropy",
        ok,
        f"S(product)={s_prod:.2e}, |S(bell)-ln2|={abs(s_bell - math.log(2)):.2e}, "
        f"max|S_A-S_B|={max_dual:.2e}",
    )


def check_thermal(seed: int = 4242) -> CheckResult:
    """Weight normalization, the (0,1) kT=1 point, and both limits."""
    rng = np.random.default_rng(seed)
    sum_dev = 0.0
    for _ in range(5):
        e = rng.normal(scale=3.0, size=6)
        w = thermal_weights(e, float(rng.uniform(0.2, 5.0)))
        sum_dev = max(sum_dev, abs(float(w.sum()) - 1.0))

    w01 = thermal_weights([0.0, 1.0], 1.0)
    point_dev = max(abs(w01[0] - 0.731059), abs(w01[1] - 0.268941))

    w_inf = thermal_weights([0.0, 1.0, 5.0], math.inf)
    inf_dev = float(np.max(np.abs(w_inf - 1.0 / 3.0)))

    w_zero = thermal_weights([2.0, 2.0, 3.0], 0.0)
    zero_dev = float(np.max(np.abs(w_zero - np.array([0.5, 0.5, 0.0]))))

    ok = sum_dev < 1e-12 and point_dev < 1e-6 and inf_dev < 1e-12 and zero_dev < 1e-12
    return CheckResult(
        8,
        "thermal mixing",
        ok,
        f"sum dev {sum_dev:.2e}, (0,1)@kT=1 dev {point_dev:.2e}, "
        f"limits dev {max(inf_dev, zero_dev):.2e}",
    )


def check_correlation() -> CheckResult:
    """Single-term modulus identity plus the full exact scan diagnostic."""
    geom, initial, times, coeffs = _density_scenario()
    phases = [decompose(c) for c in coeffs]
    t, t0 = times[17], times[5]
    val = correlation_formula(coeffs, phases, t, t0)
    k, k0 = coeffs[0].index_of(t), coeffs[0].index_of(t0)
    modulus_dev = abs(abs(val) - phases[0].modulus[k] * phases[0].modulus[k0])

    params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=0.05, omega=0.9)
    drive = DriveSpec.exponential(0.05, 0.9, plaquette=0)
    pairs = [(i, j) for i, j, _ in geom.bonds]
    comps = [(a, b) for a in "xyz" for b in "xyz"]
    records = correlation_exact_scan(
        geom, params, drive, initial, pairs, comps, t=1.0, tol=1e-8
    )
    table_ok = len(records) == len(pairs) * len(comps)
    report = selection_rule_report(records, tol=1e-8)

    ok = modulus_dev < 1e-10 and table_ok
    verdict = "consistent" if report["consistent"] else "deviations seen"
    return CheckResult(
        9,
        "correlation engines",
        ok,
        f"single-term modulus dev {modulus_dev:.2e}; exact table "
        f"{len(records)} records; selection rule {verdict} "
        f"(max cross {report['max_cross_component']:.2e}, "
        f"max same {report['max_same_component']:.2e}) [diagnostic only]",
    )


@functools.lru_cache(maxsize=None)
def _convergence_2x2() -> tuple[float, float, float]:
    """Step-halving differences and ratio of the driven 2x2 oracle scenario."""
    geom = build_lattice(2, 2)
    psi0 = build_product_ket(geom, FlipConfig(0, 4))
    params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=0.05, omega=0.7)
    drive = DriveSpec.exponential(0.05, 0.7, plaquette=0)
    return convergence_ratio(geom, params, drive, psi0, t_end=2.0)


def check_oracle_quality() -> CheckResult:
    """Order-4 convergence and unitary norm drift of the integrator."""
    geom = build_lattice(2, 2)
    psi0 = build_product_ket(geom, FlipConfig(0, 4))
    diff_c, diff_f, ratio = _convergence_2x2()

    params0 = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=0.0, omega=0.7)
    drive0 = DriveSpec.exponential(0.0, 0.7, plaquette=0)
    period = 2.0 * np.pi / 0.7
    res = exact_evolve(
        geom, params0, drive0, psi0, np.linspace(0.0, period, 5), tol=1e-9
    )

    ok = ratio >= 15.0 and res.norm_drift < 1e-8
    return CheckResult(
        10,
        "oracle quality",
        ok,
        f"step-halving ratio {ratio:.2f} (differences {diff_c:.2e} -> {diff_f:.2e}), "
        f"norm drift {res.norm_drift:.2e} over one period (undriven)",
    )


def oracle_error_report() -> dict:
    """First-order error scaling and integrator order, JSON-ready.

    One entry per compared state (the initial configuration and each
    connected target) with its worst coefficient error per drive
    amplitude, plus the measured convergence order of the stepper.
    """
    reports = {d: _tdpt_scenario(d) for d in (0.02, 0.01)}
    ref = reports[0.02]
    targets = [
        {
            "id": initial_label(FlipConfig(0, 4)),
            "max_error": reports[0.01].initial_deviation,
            "error_vs_D": [[d, reports[d].initial_deviation] for d in (0.02, 0.01)],
        }
    ]
    for label in ref.labels:
        targets.append(
            {
                "id": label,
                "max_error": reports[0.01].max_error[label],
                "error_vs_D": [[d, reports[d].max_error[label]] for d in (0.02, 0.01)],
            }
        )

    _, _, ratio = _convergence_2x2()
    return {"targets": targets, "convergence_order": math.log2(ratio)}


ALL_CHECKS = (
    check_manifold_counting,
    check_plaquette_algebra,
    check_closed_form_vs_quadrature,
    check_tdpt_scaling,
    check_phase_law,
    check_density_structure,
    check_entropy,
    check_thermal,
    check_correlation,
    check_oracle_quality,
)


def run_acceptance(seed: int = 12345) -> list[CheckResult]:
    """Run the full property suite; one result per criterion."""
    results = []
    for fn in ALL_CHECKS:
        if fn in (check_entropy, check_thermal):
            results.append(fn(seed=seed))
        else:
            results.append(fn())
    return results
