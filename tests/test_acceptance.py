"""Acceptance gate: every criterion at its stated tolerance.

Each test prints its one-line pass/fail verdict (visible with pytest -s
or in captured output on failure) and asserts the criterion held.  The
checks come from kitaevsim.validation, the same code the ``validate``
CLI subcommand runs.
"""

import sys

import numpy as np
import pytest

from kitaevsim import pauli, validation
from kitaevsim.hamiltonian import CouplingParams, plaquette_string
from kitaevsim.lattice import build_lattice

from reference import dense_h0_kron


def _run(check_fn, **kwargs):
    result = check_fn(**kwargs)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_manifold_counting():
    _run(validation.check_manifold_counting)


def test_criterion_02_plaquette_algebra():
    _run(validation.check_plaquette_algebra)


def test_criterion_02_compiles_each_string_once(monkeypatch):
    # 4 w_p matrices, 5 configurations x 4 plaquettes for the projections
    # and again for the expectations, and the 12 bonds of dense H0
    calls = []
    real = pauli.string_term

    def counting(ops, n):
        calls.append(ops)
        return real(ops, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("kitaevsim") and getattr(module, "string_term", None) is real:
            monkeypatch.setattr(module, "string_term", counting)
    assert validation.check_plaquette_algebra().passed
    assert 0 < len(calls) <= 4 + 20 + 20 + 12


def _dense_deviations(h, mask, phase):
    dim = len(phase)
    w = np.zeros((dim, dim), dtype=complex)
    w[np.arange(dim), np.arange(dim) ^ mask] = phase
    comm = np.max(np.abs(h @ w - w @ h))
    hermiticity = np.max(np.abs(w - w.conj().T))
    modulus = np.max(np.abs(np.abs(np.linalg.eigvals(w)) - 1.0))
    return comm, max(hermiticity, modulus)


def _corrupt(phase, how, k):
    phase = phase.copy()
    phase[k] *= {"sign": -1.0, "quarter turn": 1j, "scale": 1.5}[how]
    return phase


@pytest.mark.parametrize("how", [None, "sign", "quarter turn", "scale"])
def test_plaquette_deviations_match_the_dense_matrices(how):
    geom = build_lattice(2, 2)
    params = CouplingParams(jx=1.0, jy=0.8, jz=1.2)
    h = dense_h0_kron(geom, params)
    for p in range(geom.n_plaquettes):
        mask, phase = pauli.string_term(plaquette_string(geom, p), geom.n_sites)
        if how is not None:
            phase = _corrupt(phase, how, 37 * p + 5)
        got = validation.plaquette_deviations(h, mask, phase)
        assert np.allclose(got, _dense_deviations(h, mask, phase), rtol=0, atol=1e-12)
        if how is None:
            assert got == (0.0, 0.0)
        else:
            assert got[0] > 0.1 and got[1] > 0.1


@pytest.mark.parametrize("how", ["sign", "quarter turn", "scale"])
def test_criterion_02_fails_on_a_corrupted_phase(monkeypatch, how):
    real = validation.string_term

    def corrupted(ops, n):
        mask, phase = real(ops, n)
        return mask, _corrupt(phase, how, 3)

    monkeypatch.setattr(validation, "string_term", corrupted)
    assert not validation.check_plaquette_algebra().passed


def test_criterion_03_closed_form_vs_quadrature():
    _run(validation.check_closed_form_vs_quadrature)


def test_criterion_04_tdpt_scaling():
    _run(validation.check_tdpt_scaling)


def test_criterion_05_phase_law_and_stability():
    _run(validation.check_phase_law)


def test_criterion_06_density_matrix_structure():
    _run(validation.check_density_structure)


def test_criterion_07_entanglement_entropy():
    _run(validation.check_entropy)


def test_criterion_08_thermal_mixing():
    _run(validation.check_thermal)


def test_criterion_09_correlation_engines():
    _run(validation.check_correlation)


def test_criterion_10_oracle_quality():
    _run(validation.check_oracle_quality)


def test_convergence_order_is_four():
    # CF4 is order 4: the ratio of successive step-halving differences
    # reads 4.001 here, as do 1024 substeps per interval
    assert abs(validation.oracle_error_report()["convergence_order"] - 4.0) <= 0.01


def test_full_suite_summary():
    results = validation.run_acceptance()
    for r in results:
        print(r.line())
    assert len(results) == 10
    assert all(r.passed for r in results)


def test_oracle_report_is_identical_without_the_scenario_cache(monkeypatch):
    # the report reuses the runs of criteria 4 and 10; they are pure, so the
    # cached report must equal one computed from fresh runs
    cached = validation.oracle_error_report()
    monkeypatch.setattr(
        validation, "_tdpt_scenario", validation._tdpt_scenario.__wrapped__
    )
    monkeypatch.setattr(
        validation, "_convergence_2x2", validation._convergence_2x2.__wrapped__
    )
    assert validation.oracle_error_report() == cached
