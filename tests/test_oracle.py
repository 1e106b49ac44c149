import numpy as np
import pytest

import kitaevsim.oracle as oracle_mod
from kitaevsim.hamiltonian import CouplingParams, energy_expectation
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, build_product_ket, excite
from kitaevsim.oracle import (
    TdptErrorReport,
    convergence_ratio,
    evolve_fixed_substeps,
    exact_evolve,
    project_and_compare,
)
from kitaevsim.perturbation import DriveSpec, evolve_coefficients

from reference import apply_h0, dense_h0_kron

GEOM = build_lattice(2, 2)
EMPTY = FlipConfig(0, 4)
PSI0 = build_product_ket(GEOM, EMPTY)


def undriven(jx=1.0, jy=0.8, jz=1.2):
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=0.0, omega=0.7)
    return params, DriveSpec.exponential(0.0, 0.7, plaquette=0)


class TestExactEvolve:
    def test_nan_tolerance_rejected_before_any_step(self, monkeypatch):
        def no_steps(*args, **kwargs):
            raise AssertionError("propagation ran with a NaN tolerance")

        monkeypatch.setattr(oracle_mod, "evolve_fixed_substeps", no_steps)
        params, drive = undriven()
        with pytest.raises(ValueError, match="tolerance"):
            exact_evolve(GEOM, params, drive, PSI0, np.linspace(0.0, 1.0, 3), tol=float("nan"))

    def test_undriven_run_conserves_norm_and_energy(self):
        params, drive = undriven()
        times = np.linspace(0.0, 3.0, 7)
        res = exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-9)
        assert res.norm_drift < 1e-9
        assert res.energy_drift is not None and res.energy_drift < 1e-9

    def test_energy_drift_matches_the_reference_h0(self):
        # the drift from the compiled H0 against the bond-streamed <psi|H0 psi>
        params, drive = undriven(jx=0.9, jy=-0.4, jz=1.3)
        res = exact_evolve(GEOM, params, drive, PSI0, np.linspace(0.0, 3.0, 7), tol=1e-9)
        e = np.array([np.vdot(k, apply_h0(GEOM, params, k)).real for k in res.kets])
        assert res.energy_drift == pytest.approx(float(np.max(np.abs(e - e[0]))), rel=0, abs=1e-12)

    def test_h0_eigenvector_is_stationary(self):
        params, drive = undriven()
        h = dense_h0_kron(GEOM, params)
        _, vecs = np.linalg.eigh(h)
        psi0 = vecs[:, 3].astype(complex)
        times = np.linspace(0.0, 4.0, 9)
        res = exact_evolve(GEOM, params, drive, psi0, times, tol=1e-9)
        for ket in res.kets:
            assert abs(abs(np.vdot(psi0, ket)) - 1.0) < 1e-8

    def test_linearity(self):
        params, drive = undriven()
        times = np.linspace(0.0, 2.0, 5)
        base = evolve_fixed_substeps(GEOM, params, drive, PSI0, times, 64)
        phase = np.exp(0.4j)
        scaled = evolve_fixed_substeps(GEOM, params, drive, phase * PSI0, times, 64)
        for a, b in zip(base, scaled):
            assert np.max(np.abs(phase * a - b)) < 1e-10

    def test_driven_norm_drift_is_second_order_in_amplitude(self):
        # the complex drive makes the generator non-Hermitian; the physical
        # norm drift scales with D^2 and is reported, not forbidden
        drifts = {}
        for d in (0.02, 0.01):
            params = CouplingParams(jx=1e-3, jy=1e-3, jz=1e-3, d=d, omega=-1.0)
            drive = DriveSpec.exponential(d, -1.0, plaquette=0)
            times = np.linspace(0.0, 2.0 * np.pi, 9)
            res = exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-10)
            drifts[d] = res.norm_drift
        assert drifts[0.02] > 1e-8  # genuinely non-unitary
        assert drifts[0.02] / drifts[0.01] == pytest.approx(4.0, rel=0.1)

    def test_input_validation(self):
        params, drive = undriven()
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            exact_evolve(GEOM, params, drive, 2.0 * PSI0, times)
        with pytest.raises(ValueError):
            exact_evolve(GEOM, params, drive, PSI0, times, tol=-1.0)
        with pytest.raises(ValueError):
            exact_evolve(GEOM, params, drive, PSI0[:128], times)

    # NaN passes the increasing check, and [0, nan] once refined to 2^25
    # substeps; [0, inf] failed with "math domain error"
    @pytest.mark.parametrize("end", [float("nan"), float("inf")])
    def test_non_finite_grid_rejected_before_any_step(self, monkeypatch, end):
        def no_steps(*args, **kwargs):
            raise AssertionError("propagation ran on a non-finite grid")

        monkeypatch.setattr(oracle_mod, "evolve_fixed_substeps", no_steps)
        params, drive = undriven()
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            exact_evolve(GEOM, params, drive, PSI0, np.array([0.0, end]))

    @pytest.mark.parametrize("substeps", [0, -1])
    def test_fixed_steps_need_one_substep(self, substeps):
        # zero substeps returned the initial ket at every later time
        params, drive = undriven()
        with pytest.raises(ValueError, match="substep"):
            evolve_fixed_substeps(GEOM, params, drive, PSI0, np.linspace(0.0, 1.0, 3), substeps)

    def test_step_budget_exhaustion(self, monkeypatch):
        # driven: on an undriven run each CF4 step is exact up to its
        # truncation error, so even tol=1e-14 is met within a few steps
        params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=0.05, omega=0.7)
        drive = DriveSpec.exponential(0.05, 0.7, plaquette=0)
        monkeypatch.setattr(oracle_mod, "_MAX_TOTAL_STEPS", 64)
        with pytest.raises(RuntimeError, match="refinement exhausted"):
            exact_evolve(
                GEOM, params, drive, PSI0, np.linspace(0.0, 3.0, 9), tol=1e-14
            )


class TestConvergence:
    def test_order_four_step_halving(self):
        params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=0.05, omega=0.7)
        drive = DriveSpec.exponential(0.05, 0.7, plaquette=0)
        err_c, err_f, ratio = convergence_ratio(GEOM, params, drive, PSI0, t_end=2.0)
        assert err_c > err_f > 0
        assert ratio >= 15.0

    def test_ratio_needs_no_reference_run(self, monkeypatch):
        def no_reference(*args, **kwargs):
            raise AssertionError("convergence_ratio ran exact_evolve")

        monkeypatch.setattr(oracle_mod, "exact_evolve", no_reference)
        params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=0.05, omega=0.7)
        drive = DriveSpec.exponential(0.05, 0.7, plaquette=0)
        _, _, ratio = convergence_ratio(GEOM, params, drive, PSI0, t_end=2.0)
        assert ratio >= 15.0

    # an infinite end gave a NaN grid; zero and negative ends divided by zero
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(t_end=float("inf")), "t_end"),
            (dict(t_end=0.0), "t_end"),
            (dict(t_end=-1.0), "t_end"),
        ],
    )
    def test_bad_grids_and_step_counts_raise(self, kwargs, match):
        params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=0.05, omega=0.7)
        drive = DriveSpec.exponential(0.05, 0.7, plaquette=0)
        args = dict(t_end=2.0) | kwargs
        with pytest.raises(ValueError, match=match):
            convergence_ratio(GEOM, params, drive, PSI0, **args)


def _loop_report(result, basis_kets, tdpt):
    """project_and_compare's errors from one np.vdot per (ket, time)."""
    c_init = [
        np.vdot(basis_kets[0], ket) * np.exp(1j * tdpt[0].e_initial * t)
        for t, ket in zip(result.times, result.kets)
    ]
    initial = float(np.max(np.abs(np.array(c_init) - 1.0)))
    max_error = {}
    for ket_m, series in zip(basis_kets[1:], tdpt):
        c_exact = [
            np.vdot(ket_m, ket) * np.exp(1j * series.e_target * t)
            for t, ket in zip(result.times, result.kets)
        ]
        max_error[series.label] = float(np.max(np.abs(np.array(c_exact) - series.values)))
    return TdptErrorReport(
        labels=list(max_error),
        max_error=max_error,
        initial_deviation=initial,
        overall_max_error=max([initial, *max_error.values()]),
    )


class TestProjectAndCompare:
    def _scene(self, d, j=1e-3):
        params = CouplingParams(jx=j, jy=j, jz=j, d=d)
        omega0 = energy_expectation(GEOM, params, EMPTY, excite(EMPTY, 0)) - (
            energy_expectation(GEOM, params, EMPTY)
        )
        omega = omega0 - 1.0
        params = CouplingParams(jx=j, jy=j, jz=j, d=d, omega=omega)
        drive = DriveSpec.exponential(d, omega, plaquette=0)
        times = np.linspace(0.0, 2.0 * np.pi, 17)
        targets = [excite(EMPTY, 0)]
        tdpt = evolve_coefficients(GEOM, params, drive, EMPTY, targets, times)
        basis = [PSI0] + [build_product_ket(GEOM, t.base, t) for t in targets]
        res = exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-11)
        return project_and_compare(res, basis, tdpt)

    def test_zero_drive_gives_zero_target_errors(self):
        report = self._scene(0.0)
        for err in report.max_error.values():
            assert err < 1e-10

    def test_small_drive_regression_bound(self):
        # frozen regression bound: per-target error well under 1e-3 of the
        # coefficient scale (max |c| ~ 2D) for D=0.01, delta=1, one period
        report = self._scene(0.01)
        target_err = max(report.max_error.values())
        assert target_err < 1e-3 * 0.02
        assert target_err < 5e-6

    def test_overall_error_includes_initial_depletion(self):
        report = self._scene(0.02)
        assert report.overall_max_error >= report.initial_deviation
        assert report.initial_deviation > max(report.max_error.values())

    def test_matches_the_per_ket_vdot_loop(self):
        params = CouplingParams(jx=0.3, jy=-0.2, jz=0.5, d=0.05, omega=0.4)
        drive = DriveSpec.exponential(0.05, 0.4, plaquette=0)
        times = np.linspace(0.0, 1.5, 7)
        targets = [excite(EMPTY, q) for q in range(GEOM.n_plaquettes)]
        tdpt = evolve_coefficients(GEOM, params, drive, EMPTY, targets, times)
        basis = [PSI0] + [build_product_ket(GEOM, t.base, t) for t in targets]
        res = exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-8)
        got = project_and_compare(res, basis, tdpt)
        ref = _loop_report(res, basis, tdpt)
        assert got.labels == ref.labels and len(got.labels) == GEOM.n_plaquettes
        for label in ref.labels:
            assert got.max_error[label] == pytest.approx(ref.max_error[label], rel=0, abs=1e-13)
        assert got.initial_deviation == pytest.approx(ref.initial_deviation, rel=0, abs=1e-13)
        assert got.overall_max_error == pytest.approx(ref.overall_max_error, rel=0, abs=1e-13)

    def test_rejects_an_empty_series_list(self):
        # with no series there is no initial energy to strip its dynamical phase
        params = CouplingParams(jx=1e-3, jy=1e-3, jz=1e-3, d=0.01, omega=0.0)
        drive = DriveSpec.exponential(0.01, 0.0, plaquette=1)
        res = exact_evolve(GEOM, params, drive, PSI0, np.linspace(0.0, 1.0, 3), tol=1e-9)
        with pytest.raises(ValueError, match="at least one coefficient series"):
            project_and_compare(res, [PSI0], [])

    def test_rejects_non_orthonormal_basis(self):
        params = CouplingParams(jx=1e-3, jy=1e-3, jz=1e-3, d=0.01, omega=0.5)
        drive = DriveSpec.exponential(0.01, 0.5, plaquette=0)
        times = np.linspace(0.0, 1.0, 5)
        targets = [excite(EMPTY, 0)]
        tdpt = evolve_coefficients(GEOM, params, drive, EMPTY, targets, times)
        res = exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-9)
        with pytest.raises(ValueError, match="orthonormal"):
            project_and_compare(res, [PSI0, PSI0], tdpt)
