"""The drive is the only carrier of the drive amplitude D.

A first-order series is -i m times the integral of exp(i omega0 t) B(t),
with m the unit drive element, so ``CouplingParams.d`` must not enter it:
an exponential drive holds D in its amplitude and a custom drive in its
samples.  The series are held to the exact oracle and, bit for bit, to
the one-target element times the unit integral.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim.hamiltonian import CouplingParams, perturbation_element
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, build_product_ket, excite, signature_kernel
from kitaevsim.oracle import exact_evolve, project_and_compare
from kitaevsim.perturbation import (
    DriveSpec,
    coefficient_closed_form,
    coefficient_interpolated,
    connected_targets,
    evolve_coefficients,
)

# 3x3 is the smallest torus with a nontrivial flip kernel, so its targets
# can name one ket from two bases
GEOMS = {shape: build_lattice(*shape) for shape in ((2, 2), (2, 3), (3, 2), (3, 3))}
KERNELS = {shape: [c.bits for c in signature_kernel(geom)] for shape, geom in GEOMS.items()}


@pytest.mark.parametrize("d", [0.01, 2.5])
def test_custom_drive_series_matches_the_oracle_whatever_params_d(d):
    geom = GEOMS[(2, 2)]
    empty = FlipConfig(0, 4)
    samples = np.linspace(0.0, 2.0, 801)
    drive = DriveSpec.custom(samples, 0.01 * np.exp(-0.5j * samples), plaquette=0)
    params = CouplingParams(jx=1e-4, jy=1e-4, jz=1e-4, d=d)
    times = np.linspace(0.0, 2.0, 5)
    targets = connected_targets(geom, params, empty, 0)
    series = evolve_coefficients(geom, params, drive, empty, targets, times)
    psi0 = build_product_ket(geom, empty)
    result = exact_evolve(geom, params, drive, psi0, times, tol=1e-10)
    basis = [psi0] + [build_product_ket(geom, tg.base, tg) for tg in targets]
    report = project_and_compare(result, basis, series)
    (label,) = report.labels
    # |c| ~ D t = 0.02, and the first-order error is of order |c|^2 t
    scale = float(np.max(np.abs(series[0].values)))
    assert 0.015 < scale < 0.025
    assert report.max_error[label] < 1e-3 * scale


def test_exponential_series_does_not_read_params_d():
    geom = GEOMS[(2, 2)]
    empty = FlipConfig(0, 4)
    drive = DriveSpec.exponential(0.05, 0.4, plaquette=0)
    times = np.linspace(0.0, 4.0, 21)
    targets = [excite(empty, j) for j in range(4)]
    runs = [
        evolve_coefficients(
            geom, CouplingParams(0.3, 0.5, 0.7, d=d, omega=0.4), drive, empty, targets, times
        )
        for d in (0.05, 0.7)
    ]
    assert any(np.any(s.values != 0) for s in runs[0])
    for a, b in zip(*runs):
        assert a.values.tobytes() == b.values.tobytes()


@settings(max_examples=40, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    kind=st.sampled_from(["exponential", "custom"]),
    amplitude=st.one_of(st.just(0.0), st.floats(0.001, 2.0)),
    params_d=st.floats(0.0, 3.0),
    couplings=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    omega=st.floats(-3.0, 3.0),
    data=st.data(),
)
def test_series_are_the_element_times_the_unit_integral(
    shape, kind, amplitude, params_d, couplings, omega, data
):
    geom = GEOMS[shape]
    n = geom.n_plaquettes
    initial = FlipConfig(data.draw(st.integers(0, 2**n - 1), label="initial"), n)
    q = data.draw(st.integers(0, n - 1), label="drive plaquette")
    params = CouplingParams(*couplings, d=params_d, omega=omega)
    times = np.linspace(0.0, data.draw(st.floats(0.5, 6.0), label="t_max"), 9)
    if kind == "exponential":
        drive = DriveSpec.exponential(amplitude, omega, plaquette=q)
        d = amplitude
    else:
        samples = np.linspace(0.0, times[-1], 7)
        values = data.draw(st.lists(
            st.complex_numbers(max_magnitude=2.0, allow_nan=False), min_size=7, max_size=7
        ), label="samples")
        drive = DriveSpec.custom(samples, values, plaquette=q)
        d = 1.0

    # the image target, its kernel twins, excitations of other bases
    twins = [initial.bits ^ k for k in [0] + KERNELS[shape]]
    targets = [excite(FlipConfig(bits, n), tg.flipped_plaquette)
               for tg in connected_targets(geom, params, initial, q) for bits in twins]
    others = st.tuples(st.integers(0, 2**n - 1), st.integers(0, n - 1))
    targets += [excite(FlipConfig(bits, n), j)
                for bits, j in data.draw(st.lists(others, max_size=6), label="others")]
    targets = data.draw(st.permutations(targets), label="order")

    series = evolve_coefficients(geom, params, drive, initial, targets, times)
    assert [s.target for s in series] == sorted(
        targets, key=lambda tg: (tg.flipped_plaquette, tg.base.bits)
    )
    element_params = dataclasses.replace(params, d=d)
    for s in series:
        m = perturbation_element(geom, initial, s.target, element_params, drive.plaquette)
        if kind == "exponential":
            unit = coefficient_closed_form(1, 1.0, s.omega0 - omega, times)
            expected = m * np.asarray(unit, dtype=complex)
        else:
            expected = coefficient_interpolated(m, drive, s.omega0, times)
        assert np.array_equal(s.values, expected), s.label
        if m != 0:
            assert s.values.tobytes() == expected.tobytes(), s.label
