import numpy as np
import pytest

from kitaevsim.correlation import (
    correlation_exact_scan,
    correlation_formula,
    selection_rule_report,
)
from kitaevsim.hamiltonian import CouplingParams, energy_expectation
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, build_product_ket, excite
from kitaevsim.perturbation import DriveSpec, connected_targets, evolve_coefficients
from kitaevsim.phase import decompose

from reference import apply_pauli

GEOM = build_lattice(2, 2)
EMPTY = FlipConfig(0, 4)


def scene(d=0.05, j=0.2, detuning=0.8):
    probe = CouplingParams(jx=j, jy=j, jz=j, d=d)
    omega0 = energy_expectation(GEOM, probe, EMPTY, excite(EMPTY, 0)) - (
        energy_expectation(GEOM, probe, EMPTY)
    )
    omega = omega0 - detuning
    params = CouplingParams(jx=j, jy=j, jz=j, d=d, omega=omega)
    drive = DriveSpec.exponential(d, omega, plaquette=0)
    times = np.linspace(0.0, 6.0, 25)
    targets = connected_targets(GEOM, params, EMPTY, 0)
    coeffs = evolve_coefficients(GEOM, params, drive, EMPTY, targets, times)
    phases = [decompose(c) for c in coeffs]
    return params, drive, times, coeffs, phases


class TestFormula:
    def test_literal_t0_zero_is_degenerately_zero(self):
        _, _, times, coeffs, phases = scene()
        with pytest.warns(UserWarning, match="degenerately zero"):
            val = correlation_formula(coeffs, phases, times[10], 0.0)
        assert val == 0.0

    def test_single_term_at_equal_times(self):
        _, _, times, coeffs, phases = scene()
        t = times[10]
        val = correlation_formula(coeffs, phases, t, t)
        k = coeffs[0].index_of(t)
        assert abs(val) == pytest.approx(phases[0].modulus[k] ** 2, abs=1e-12)
        # phase difference cancels; only the dynamical factor survives
        assert np.angle(val) == pytest.approx(
            float((coeffs[0].e_target * t + np.pi) % (2 * np.pi) - np.pi), abs=1e-12
        )

    def test_reduces_to_conjugate_product_form(self):
        _, _, times, coeffs, phases = scene()
        t, t0 = times[16], times[4]
        val = correlation_formula(coeffs, phases, t, t0)
        direct = sum(
            np.conj(c.values[c.index_of(t)])
            * c.values[c.index_of(t0)]
            * np.exp(1j * c.e_target * t)
            for c in coeffs
        )
        assert val == pytest.approx(direct, abs=1e-14)

    def test_invariant_under_common_phase_shift(self):
        # a constant shift of every target argument cancels per term
        _, _, times, coeffs, phases = scene()
        t, t0 = times[16], times[4]
        val = correlation_formula(coeffs, phases, t, t0)
        rotated = [
            type(c)(
                target=c.target, e_target=c.e_target, e_initial=c.e_initial,
                times=c.times, values=c.values * np.exp(0.77j),
            )
            for c in coeffs
        ]
        phases_rot = [decompose(c) for c in rotated]
        val_rot = correlation_formula(rotated, phases_rot, t, t0)
        assert val_rot == pytest.approx(val, abs=1e-12)

    def test_length_mismatch(self):
        _, _, times, coeffs, phases = scene()
        with pytest.raises(ValueError):
            correlation_formula(coeffs, [], times[3], times[1])


class TestExactScan:
    def test_pauli_square_is_identity_at_t_zero(self):
        params = CouplingParams(jx=0.2, jy=0.2, jz=0.2, d=0.0)
        drive = DriveSpec.exponential(0.0, 0.0, plaquette=0)
        rec = correlation_exact_scan(
            GEOM, params, drive, EMPTY, [(3, 3)], [("y", "y")], 0.0
        )[0]
        assert rec.value == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_static_expectation_at_t_zero(self):
        params = CouplingParams(jx=0.2, jy=0.2, jz=0.2, d=0.0)
        drive = DriveSpec.exponential(0.0, 0.0, plaquette=0)
        psi0 = build_product_ket(GEOM, EMPTY)
        pairs = [(4, 5), (0, 1)]
        comps = [("z", "z"), ("x", "y")]
        records = correlation_exact_scan(GEOM, params, drive, EMPTY, pairs, comps, 0.0)
        for rec in records:
            static = np.vdot(
                psi0, apply_pauli(apply_pauli(psi0, rec.site_j, rec.beta),
                                  rec.site_i, rec.alpha)
            )
            assert rec.value == pytest.approx(complex(static), abs=1e-12)

    def test_hermiticity_relation_at_t_zero(self):
        params = CouplingParams(jx=0.3, jy=0.4, jz=0.5, d=0.0)
        drive = DriveSpec.exponential(0.0, 0.0, plaquette=0)
        a = correlation_exact_scan(GEOM, params, drive, EMPTY, [(4, 5)], [("z", "z")], 0.0)[0]
        b = correlation_exact_scan(GEOM, params, drive, EMPTY, [(5, 4)], [("z", "z")], 0.0)[0]
        assert a.value == pytest.approx(np.conj(b.value), abs=1e-12)

    def test_full_table_shape_and_tags(self):
        params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=0.05, omega=0.9)
        drive = DriveSpec.exponential(0.05, 0.9, plaquette=0)
        pairs = [(i, j) for i, j, _ in GEOM.bonds]
        comps = [(a, b) for a in "xyz" for b in "xyz"]
        records = correlation_exact_scan(
            GEOM, params, drive, EMPTY, pairs, comps, t=0.5, tol=1e-7
        )
        assert len(records) == len(pairs) * len(comps)
        assert all(r.source == "exact" and r.t0 == 0.0 for r in records)
        assert all(np.isfinite(r.value.real) and np.isfinite(r.value.imag) for r in records)

    def test_selection_rule_report_measures_deviations(self):
        # on product kets the static correlation factorizes into single-site
        # expectations, so any (alpha, beta) matching the two sites' owned
        # components gives +-1 -- including cross-component pairs.  The
        # report must surface these deviations instead of hiding them.
        params = CouplingParams(jx=0.2, jy=0.2, jz=0.2, d=0.0)
        drive = DriveSpec.exponential(0.0, 0.0, plaquette=0)
        pairs = [(i, j) for i, j, _ in GEOM.bonds]
        comps = [(a, b) for a in "xyz" for b in "xyz"]
        records = correlation_exact_scan(GEOM, params, drive, EMPTY, pairs, comps, 0.0)
        comp_of = GEOM.site_components
        for rec in records:
            expected = (
                1.0
                if comp_of[rec.site_i] == rec.alpha and comp_of[rec.site_j] == rec.beta
                else 0.0
            )
            assert abs(abs(rec.value) - expected) < 1e-10
        report = selection_rule_report(records, tol=1e-9)
        assert report["n_records"] == 108
        assert report["max_same_component"] == pytest.approx(1.0, abs=1e-10)
        assert report["max_cross_component"] == pytest.approx(1.0, abs=1e-10)
        assert report["consistent"] is False
        assert len(report["offenders"]) == 10

    def test_nan_tolerance_rejected(self):
        params, drive, *_ = scene()
        with pytest.raises(ValueError, match="tolerance"):
            correlation_exact_scan(
                GEOM, params, drive, EMPTY, [(0, 1)], [("x", "x")], 1.0, tol=float("nan")
            )

    def test_cap_guard(self):
        geom = build_lattice(3, 3)
        params = CouplingParams(jx=0.2, jy=0.2, jz=0.2, d=0.0)
        drive = DriveSpec.exponential(0.0, 0.0, plaquette=0)
        with pytest.raises(ValueError, match="cap"):
            correlation_exact_scan(
                geom, params, drive, FlipConfig(0, 9), [(0, 1)], [("x", "x")], 0.0
            )
