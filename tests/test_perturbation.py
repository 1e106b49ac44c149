import bisect
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim.hamiltonian import CouplingParams, energy_expectation, perturbation_element
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, excite
from kitaevsim.perturbation import (
    CoefficientSeries,
    DriveSpec,
    coefficient_closed_form,
    coefficient_interpolated,
    coefficient_quadrature,
    connected_targets,
    evolve_coefficients,
)


def mpmath_coefficient(d, omega, omega0, t, digits=30):
    """Independent high-precision oracle for the defining integral."""
    with mpmath.workdps(digits):
        f = lambda tp: (
            mpmath.exp(1j * omega0 * tp) * d * mpmath.exp(-1j * omega * tp) / 1j
        )
        val = mpmath.quad(f, [0, t])
        return complex(val)


class TestClosedForm:
    def test_value_at_pi(self):
        # expected value frozen from the quadrature oracle
        oracle = mpmath_coefficient(1.0, 0.0, 1.0, np.pi)
        assert oracle == pytest.approx(2.0 + 0.0j, abs=1e-12)
        assert coefficient_closed_form(1, 1.0, 1.0, np.pi) == pytest.approx(
            2.0 + 0.0j, abs=1e-12
        )

    def test_value_at_half_pi(self):
        oracle = mpmath_coefficient(1.0, 0.0, 1.0, np.pi / 2)
        assert oracle == pytest.approx(1.0 - 1.0j, abs=1e-12)
        assert coefficient_closed_form(1, 1.0, 1.0, np.pi / 2) == pytest.approx(
            1.0 - 1.0j, abs=1e-12
        )

    def test_zero_time(self):
        assert coefficient_closed_form(1, 2.0, 0.7, 0.0) == 0.0
        assert coefficient_closed_form(-1, 2.0, 0.0, 0.0) == 0.0

    def test_resonance_limit(self):
        # delta -> 0 gives -i D t; cross-checked at delta = 1e-8
        assert coefficient_closed_form(1, 1.0, 0.0, 1.0) == pytest.approx(
            -1.0j, abs=1e-15
        )
        near = coefficient_closed_form(1, 1.0, 1e-8, 1.0)
        oracle = mpmath_coefficient(1.0, 0.0, 1e-8, 1.0)
        assert near == pytest.approx(oracle, abs=1e-12)

    def test_sign_factor(self):
        plus = coefficient_closed_form(1, 1.0, 1.3, 2.0)
        minus = coefficient_closed_form(-1, 1.0, 1.3, 2.0)
        assert plus == -minus

    def test_series_branch_matches_trig_form_at_the_seam(self):
        # just inside the series threshold, the Taylor branch must agree
        # with the direct trigonometric expression
        t, delta = 1.0, 0.99e-4
        val = coefficient_closed_form(1, 1.0, delta, t)
        trig = 2.0 * math.sin(delta * t / 2.0) ** 2 / delta - 1j * math.sin(
            delta * t
        ) / delta
        assert abs(val - trig) < 1e-14

    def test_array_input_matches_scalar(self):
        times = np.array([0.0, 0.5, 2.0, 9.0])
        arr = coefficient_closed_form(1, 0.7, 1.2, times)
        for k, t in enumerate(times):
            assert arr[k] == coefficient_closed_form(1, 0.7, 1.2, float(t))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            coefficient_closed_form(1, 1.0, 1.0, -0.1)

    def test_linearity_in_amplitude_is_exact(self):
        times = np.linspace(0.0, 20.0, 101)
        c1 = coefficient_closed_form(1, 0.31, 0.9, times)
        c2 = coefficient_closed_form(1, 0.62, 0.9, times)
        assert np.array_equal(2.0 * c1, c2)

    def test_weight_periodicity(self):
        delta = 0.8
        period = 2.0 * np.pi / delta
        t = np.linspace(0.05, period, 40)
        c0 = coefficient_closed_form(1, 1.0, delta, t)
        c1 = coefficient_closed_form(1, 1.0, delta, t + period)
        assert np.max(np.abs(np.abs(c0) ** 2 - np.abs(c1) ** 2)) < 1e-10


class TestQuadrature:
    def test_matches_closed_form_for_exponential(self):
        drive = DriveSpec.exponential(1.0, 0.3)
        for delta in (0.5, 1.0, 2.5):
            for x in (0.1, 1.0, 5.0, 20.0):
                t = x / delta
                q = coefficient_quadrature(1.0, drive, delta + 0.3, t)
                c = coefficient_closed_form(1, 1.0, delta, t)
                assert abs(q - c) / abs(c) < 1e-8

    def test_t_zero(self):
        drive = DriveSpec.exponential(1.0, 0.0)
        assert coefficient_quadrature(1.0, drive, 1.0, 0.0) == 0.0

    def test_constant_drive(self):
        # B(t) = D with no energy mismatch integrates to -i D t
        d, t = 0.7, 3.0
        drive = DriveSpec.custom([0.0, 10.0], [d, d])
        val = coefficient_quadrature(1.0, drive, 0.0, t)
        assert val == pytest.approx(-1j * d * t, abs=1e-10)

    def test_custom_sampled_exponential_drive(self):
        d, omega = 0.5, 1.1
        ts = np.linspace(0.0, 12.0, 4001)
        drive = DriveSpec.custom(ts, d * np.exp(-1j * omega * ts))
        delta_e = 0.4
        q = coefficient_quadrature(1.0, drive, delta_e, 8.0)
        c = coefficient_closed_form(1, d, delta_e - omega, 8.0)
        # limited by linear interpolation of the samples, not the quadrature
        assert abs(q - c) < 5e-6

    def test_seed_points_on_one_phase_do_not_alias(self):
        # [0, 4 pi] holds four periods of e^{2 i t}, whose integral is 0; a
        # single panel over it would be far off, so the panels must stay
        # within a quarter period
        drive = DriveSpec.exponential(1.0, 0.0)
        q = coefficient_quadrature(1.0, drive, 2.0, 4.0 * np.pi)
        assert abs(q) < 1e-12

    @settings(max_examples=60, deadline=None, database=None)
    @given(delta=st.floats(0.3, 12.0), t=st.floats(0.1, 20.0), omega=st.floats(-2.0, 2.0))
    def test_matches_closed_form_over_delta_and_t(self, delta, t, omega):
        drive = DriveSpec.exponential(1.0, omega)
        q = coefficient_quadrature(1.0, drive, delta + omega, t)
        c = coefficient_closed_form(1, 1.0, delta, t)
        assert abs(q - c) < 1e-8

    def test_custom_panels_stop_at_drive_samples(self):
        # a triangle pulse: the kink at t = 1 sits inside [0, 3]
        drive = DriveSpec.custom([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 0.0])
        q = coefficient_quadrature(1.0, drive, 0.0, 3.0)
        assert q == pytest.approx(-1j, abs=1e-12)


def mpmath_quadrature(m, drive, delta_e, t, digits=30):
    """-i m * integral_0^t exp(i delta_e s) B(s) ds by ``mpmath.quad``.

    B is evaluated at ``digits`` digits: the exponential drive in closed
    form, a custom drive as the linear interpolation of its samples, held
    at the end values outside them.  The integral is split at the drive
    samples and into pieces of at most half a period of the carrier.
    """
    with mpmath.workdps(digits):
        if drive.kind == "exponential":
            def b(s):
                return drive.amplitude * mpmath.expj(-drive.omega * s)
            knots = [0.0, t]
            nu = delta_e - drive.omega
        else:
            ts = [mpmath.mpf(x) for x in drive.t_samples]
            bs = [mpmath.mpc(x) for x in drive.b_samples]

            def b(s):
                if s <= ts[0]:
                    return bs[0]
                if s >= ts[-1]:
                    return bs[-1]
                k = bisect.bisect_right(ts, s) - 1
                return bs[k] + (bs[k + 1] - bs[k]) * (s - ts[k]) / (ts[k + 1] - ts[k])
            knots = [0.0, *(x for x in drive.t_samples if 0.0 < x < t), t]
            nu = delta_e
        points = []
        for lo, hi in zip(knots[:-1], knots[1:]):
            pieces = int(math.ceil(abs(nu) * (hi - lo) / math.pi)) + 1
            points.extend(mpmath.linspace(mpmath.mpf(lo), mpmath.mpf(hi), pieces + 1)[:-1])
        points.append(mpmath.mpf(t))
        value = mpmath.quad(lambda s: mpmath.expj(delta_e * s) * b(s), points)
        return complex(-1j * mpmath.mpc(m) * value)


class TestQuadratureAgainstMpmath:
    """coefficient_quadrature held to a 30-digit mpmath.quad of the same
    integral, to 1e-14 per unit time at unit integrand scale."""

    def test_exponential_drives(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(40):
            d = rng.uniform(0.1, 2.0)
            drive = DriveSpec.exponential(d, rng.uniform(-3.0, 3.0))
            m = np.exp(2j * np.pi * rng.uniform())
            delta_e, t = rng.uniform(-8.0, 8.0), rng.uniform(0.1, 12.0)
            q = coefficient_quadrature(m, drive, delta_e, t)
            ref = mpmath_quadrature(m, drive, delta_e, t)
            worst = max(worst, abs(q - ref) / t)
        assert worst <= 1e-14

    def test_piecewise_linear_drives(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(15):
            t = rng.uniform(0.5, 10.0)
            n = int(rng.integers(2, 25))
            # samples inside [0, t], so every kink of B lies in the integral
            ts = np.sort(np.r_[0.0, rng.uniform(0.0, t, n - 2), t])
            bs = (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2.0)
            drive = DriveSpec.custom(ts, bs)
            m = np.exp(2j * np.pi * rng.uniform())
            delta_e = rng.uniform(-8.0, 8.0)
            q = coefficient_quadrature(m, drive, delta_e, t)
            ref = mpmath_quadrature(m, drive, delta_e, t)
            worst = max(worst, abs(q - ref) / t)
        assert worst <= 1e-14


def sampled_drive(n: int, t_max: float, seed: int) -> DriveSpec:
    """A smooth complex drive on an uneven grid over [0, t_max]."""
    rng = np.random.default_rng(seed)
    t = np.sort(np.r_[0.0, rng.uniform(0.0, t_max, n - 2), t_max])
    b = 0.01 * np.exp(-0.8j * t) + 0.004 * np.cos(1.7 * t) + 0.002j * t
    return DriveSpec.custom(t, b)


class TestInterpolatedDrive:
    """The exact integral of the interpolated drive against quadrature run
    on panels aligned to the drive samples."""

    T_MAX = 2.0 * np.pi
    TIMES = np.r_[0.0, np.sort(np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 7)), 2.0 * np.pi]

    @pytest.mark.parametrize(
        "delta_e",
        # 1e-6 and 0.05 put every segment's |delta h| below the series
        # threshold; 0.3 straddles it
        [0.0, 1e-6, 0.05, 0.3, 0.8, -1.3, 5.0, -7.0, 10.0],
    )
    def test_matches_sample_aligned_quadrature(self, delta_e):
        drive = sampled_drive(81, self.T_MAX, seed=7)
        m = 0.37 - 0.21j
        c = coefficient_interpolated(m, drive, delta_e, self.TIMES)
        ref = [coefficient_quadrature(m, drive, delta_e, t) for t in self.TIMES]
        assert c[0] == 0.0
        assert np.max(np.abs(c - ref)) <= 1e-12

    def test_constant_drive_is_exact(self):
        drive = DriveSpec.custom([0.0, 10.0], [0.7, 0.7])
        c = coefficient_interpolated(1.0, drive, 0.0, np.array([0.0, 1.0, 3.0]))
        assert np.allclose(c, [0.0, -0.7j, -2.1j], rtol=0.0, atol=1e-15)

    def test_drive_held_outside_its_samples(self):
        # library callers may pass samples that do not cover [0, t]; b_of
        # holds the end values there, and so does the integral
        drive = DriveSpec.custom([0.5, 1.0, 2.0], [0.2, 1.0, -0.4j])
        times = np.array([0.0, 0.25, 1.5, 3.0])
        c = coefficient_interpolated(1.0, drive, 0.9, times)
        ref = [coefficient_quadrature(1.0, drive, 0.9, t) for t in times]
        assert np.max(np.abs(c - ref)) <= 1e-12

    def test_zero_element_or_amplitude_gives_zeros(self):
        drive = sampled_drive(11, 1.0, seed=1)
        assert np.array_equal(coefficient_interpolated(0.0, drive, 1.0, [0.0, 1.0]), [0, 0])
        # the samples carry the amplitude: all-zero samples are amplitude zero
        silent = DriveSpec.custom(drive.t_samples, np.zeros(len(drive.t_samples)))
        assert np.array_equal(coefficient_interpolated(1.0, silent, 1.0, [0.0, 1.0]), [0, 0])

    @pytest.mark.parametrize("times", [[0.5, 1.0], [0.0, 1.0, 1.0], []])
    def test_bad_grid_rejected(self, times):
        with pytest.raises(ValueError, match="time grid"):
            coefficient_interpolated(1.0, sampled_drive(11, 1.0, seed=1), 1.0, times)

    def test_exponential_drive_rejected(self):
        with pytest.raises(ValueError, match="custom"):
            coefficient_interpolated(1.0, DriveSpec.exponential(1.0, 0.5), 1.0, [0.0, 1.0])

    def test_evolve_uses_the_exact_integral(self):
        # the samples carry the amplitude, so the series is the unit
        # element times the integral whatever CouplingParams.d holds
        geom = build_lattice(2, 2)
        empty = FlipConfig(0, 4)
        target = excite(empty, 0)
        unit = CouplingParams(jx=0.3, jy=0.5, jz=0.7, d=1.0)
        m = perturbation_element(geom, empty, target, unit, 0)
        drive = sampled_drive(41, self.T_MAX, seed=2)
        for d in (1.0, 0.01, 3.0):
            params = dataclasses.replace(unit, d=d)
            series = evolve_coefficients(geom, params, drive, empty, [target], self.TIMES)[0]
            expected = coefficient_interpolated(
                m, drive, series.e_target - series.e_initial, self.TIMES
            )
            assert np.array_equal(series.values, expected)


class TestDriveSpec:
    def test_custom_requires_samples(self):
        with pytest.raises(ValueError):
            DriveSpec(kind="custom", amplitude=1.0)

    def test_custom_amplitude_other_than_one_rejected(self):
        # the samples carry the amplitude, so any other value would be ignored
        with pytest.raises(ValueError, match="amplitude must be 1"):
            DriveSpec(kind="custom", amplitude=5.0, t_samples=np.array([0.0, 1.0]),
                      b_samples=np.array([1.0, 1.0], dtype=complex))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DriveSpec(kind="sawtooth", amplitude=1.0)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            DriveSpec.custom([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "t,b",
        [([0.0, np.nan, 1.0], [1.0, 1.0, 1.0]),
         ([np.nan, 0.0, 1.0], [1.0, 1.0, 1.0]),
         ([0.0, 0.5, np.inf], [1.0, 1.0, 1.0]),
         ([0.0, 0.5, 1.0], [1.0, np.inf, 1.0]),
         ([0.0, 0.5, 1.0], [1.0, complex(0.0, np.nan), 1.0])],
    )
    def test_non_finite_samples_rejected(self, t, b):
        with pytest.raises(ValueError, match="finite"):
            DriveSpec.custom(t, b)

    @pytest.mark.parametrize(
        "b,message",
        [([1.0, 2.0], "2 values for 3 times"),
         ([[1.0], [2.0], [3.0]], "1-D")],
    )
    def test_values_must_match_the_time_grid(self, b, message):
        with pytest.raises(ValueError, match=message):
            DriveSpec.custom([0, 1, 2], b)

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    def test_non_finite_omega_rejected(self, omega):
        with pytest.raises(ValueError, match="omega must be finite"):
            DriveSpec.exponential(0.01, omega)

    def test_breakpoints_are_the_samples_strictly_inside(self):
        drive = DriveSpec.custom([0.0, 0.3, 0.5, 1.1, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert drive.breakpoints(0.0, 1.1).tolist() == [0.3, 0.5]
        assert drive.breakpoints(0.3, 0.5).size == 0
        assert drive.breakpoints(0.0, 2.0).tolist() == [0.3, 0.5, 1.1]
        assert DriveSpec.exponential(1.0, 0.5).breakpoints(0.0, 2.0).size == 0

    def test_exponential_values(self):
        drive = DriveSpec.exponential(2.0, 0.5)
        assert drive.b_of(0.0) == pytest.approx(2.0)
        assert complex(drive.b_of(np.pi)) == pytest.approx(
            2.0 * np.exp(-0.5j * np.pi), abs=1e-14
        )


class TestEvolveCoefficients:
    def setup_method(self):
        self.geom = build_lattice(2, 2)
        self.empty = FlipConfig(0, 4)
        self.times = np.linspace(0.0, 4.0, 21)

    def _scene(self, d):
        params = CouplingParams(jx=0.3, jy=0.3, jz=0.3, d=d, omega=0.4)
        drive = DriveSpec.exponential(d, 0.4, plaquette=0)
        return params, drive

    def test_zero_drive_gives_zero_series(self):
        params, drive = self._scene(0.0)
        targets = [excite(self.empty, j) for j in range(4)]
        series = evolve_coefficients(
            self.geom, params, drive, self.empty, targets, self.times
        )
        assert len(series) == 4
        for s in series:
            assert np.all(s.values == 0)

    def test_only_connected_targets_are_nonzero(self):
        params, drive = self._scene(0.05)
        targets = [excite(self.empty, j) for j in range(4)]
        series = evolve_coefficients(
            self.geom, params, drive, self.empty, targets, self.times
        )
        nonzero = [s.target.flipped_plaquette for s in series if np.any(s.values != 0)]
        assert nonzero == [0]
        assert [t.flipped_plaquette for t in connected_targets(
            self.geom, params, self.empty, 0
        )] == [0]

    def test_total_weight_quarters_when_amplitude_halves(self):
        params, drive = self._scene(0.05)
        series = evolve_coefficients(
            self.geom, params, drive, self.empty,
            connected_targets(self.geom, params, self.empty, 0), self.times,
        )
        w_full = sum(float(np.sum(np.abs(s.values) ** 2)) for s in series)
        params2, drive2 = self._scene(0.025)
        series2 = evolve_coefficients(
            self.geom, params2, drive2, self.empty,
            connected_targets(self.geom, params2, self.empty, 0), self.times,
        )
        w_half = sum(float(np.sum(np.abs(s.values) ** 2)) for s in series2)
        assert w_full / w_half == pytest.approx(4.0, rel=0.01)

    def test_closed_form_values_carry_energies(self):
        params, drive = self._scene(0.05)
        series = evolve_coefficients(
            self.geom, params, drive, self.empty,
            [excite(self.empty, 0)], self.times,
        )[0]
        e0 = energy_expectation(self.geom, params, self.empty)
        e1 = energy_expectation(self.geom, params, self.empty, excite(self.empty, 0))
        assert series.e_initial == pytest.approx(e0)
        assert series.e_target == pytest.approx(e1)
        delta = (e1 - e0) - 0.4
        expected = 0.05 * np.asarray(
            coefficient_closed_form(1, 1.0, delta, self.times)
        )
        assert np.allclose(series.values, expected, atol=1e-15)

    def test_grid_must_start_at_zero(self):
        params, drive = self._scene(0.05)
        with pytest.raises(ValueError):
            evolve_coefficients(
                self.geom, params, drive, self.empty,
                [excite(self.empty, 0)], np.linspace(1.0, 2.0, 5),
            )

    def test_series_index_lookup(self):
        params, drive = self._scene(0.05)
        series = evolve_coefficients(
            self.geom, params, drive, self.empty,
            [excite(self.empty, 0)], self.times,
        )[0]
        assert series.index_of(self.times[7]) == 7
        with pytest.raises(ValueError):
            series.index_of(0.123456)

    def test_series_validation(self):
        target = excite(self.empty, 0)
        with pytest.raises(ValueError):
            CoefficientSeries(
                target=target, e_target=0.0, e_initial=0.0,
                times=np.array([0.0, 1.0]), values=np.array([0.5, 0.0]),
            )
        with pytest.raises(ValueError):
            CoefficientSeries(
                target=target, e_target=0.0, e_initial=0.0,
                times=np.array([0.5, 1.0]), values=np.array([0.0, 0.0]),
            )
