import math

import numpy as np
import pytest

from kitaevsim.perturbation import coefficient_closed_form
from kitaevsim.phase import (
    GROWING,
    DECAYING,
    decompose_values,
    effective_level,
    shifted_transition_frequency,
    stability_intervals,
)
from reference import loop_unwrap


class TestDecompose:
    def test_single_values(self):
        ph = decompose_values([0.0], [1.0 - 1.0j])
        assert ph.modulus[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert ph.angle[0] == pytest.approx(-math.pi / 4.0, abs=1e-12)
        assert ph.log_modulus[0] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

        ph = decompose_values([0.0], [2.0 + 0.0j])
        assert ph.modulus[0] == pytest.approx(2.0)
        assert ph.angle[0] == 0.0
        assert ph.log_modulus[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_minimal_jump_unwrap(self):
        raw = np.exp(1j * np.array([3.0, -3.0]))
        ph = decompose_values([0.0, 1.0], raw)
        assert ph.angle[0] == pytest.approx(3.0, abs=1e-12)
        assert ph.angle[1] == pytest.approx(-3.0 + 2.0 * math.pi, abs=1e-12)

    def test_unwrap_steps_stay_within_pi(self):
        t = np.linspace(0.0, 10.0, 400)
        values = np.exp(1j * 2.3 * t) * (1.0 + 0.1 * np.cos(t))
        ph = decompose_values(t, values)
        steps = np.diff(ph.angle)
        assert np.all(np.abs(steps) <= math.pi + 1e-12)

    def test_reconstruction(self):
        t = np.linspace(0.0, 12.0, 300)
        values = coefficient_closed_form(1, 0.8, 1.7, t)
        ph = decompose_values(t, values)
        rebuilt = ph.modulus * np.exp(1j * ph.angle)
        ok = ~ph.singular
        assert np.max(np.abs(rebuilt[ok] - values[ok])) < 1e-12

    def test_all_zero_series_is_all_singular(self):
        ph = decompose_values([0.0, 1.0, 2.0], np.zeros(3, dtype=complex))
        assert np.all(ph.singular)
        assert np.all(np.isneginf(ph.log_modulus))

    def test_branch_restarts_after_singular_gap(self):
        t = np.linspace(0.0, 4.0 * np.pi, 801)
        values = coefficient_closed_form(1, 1.0, 1.0, t)
        ph = decompose_values(t, values)
        gap = np.argmin(np.abs(t - 2.0 * np.pi))
        assert ph.singular[gap]
        # first sample after the gap carries its raw argument
        k = gap + 1
        assert ph.angle[k] == pytest.approx(float(np.angle(values[k])), abs=1e-12)

    def test_global_phase_invariance(self):
        t = np.linspace(0.0, 9.0, 200)
        values = coefficient_closed_form(1, 1.0, 1.4, t)
        a = decompose_values(t, values)
        b = decompose_values(t, values * np.exp(1.234j))
        ok = ~a.singular
        da = np.diff(a.angle[ok])
        db = np.diff(b.angle[ok])
        assert np.max(np.abs(da - db)) < 1e-9
        assert stability_intervals(a) == stability_intervals(b)

    @pytest.mark.parametrize("seed", range(8))
    def test_unwrap_matches_the_per_sample_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        # a phase walk that winds many times, with steps up to 1.2 pi
        phi = np.cumsum(rng.uniform(-1.2, 1.2, n) * math.pi)
        values = rng.uniform(0.1, 2.0, n) * np.exp(1j * phi)
        # exact zeros, sub-threshold samples and runs of either: singular gaps
        for start in rng.choice(n - 5, 12, replace=False):
            values[start:start + rng.integers(1, 5)] = rng.choice([0.0, 1e-17j, -1e-16])
        values[-1] = 0.0
        # the branch cut and signed zeros, the first sample among them
        values[rng.choice(n, 6, replace=False)] = [
            -1.0, complex(-1.0, -0.0), complex(1.0, -0.0), -0.0, -1j, 1e-300
        ]
        values[0] = [0.0, complex(1.0, -0.0), -1.0, 2j][seed % 4]
        # one sample of 1e9 lifts the zero threshold, 1e-12 of the peak, to 1e-3
        lifted = values.copy()
        lifted[n // 2] = 1e9
        for vals in (values, lifted):
            ph = decompose_values(np.arange(n, dtype=float), vals)
            assert ph.singular.sum() > 12
            expected = loop_unwrap(vals, ph.singular)
            assert [float(a).hex() for a in ph.angle] == [float(a).hex() for a in expected]
            assert ph.angle.dtype == np.float64


    def test_rows_match_the_per_sample_loop_at_half_turns(self):
        """Rows are decomposed each on its own.  Jumps of half a turn, give
        or take an ulp, on phases wound far from zero are where the array
        pass's summed turns can miss the loop's rounding; those rows must
        still come out bit for bit."""
        rng = np.random.default_rng(11)
        steps = rng.choice([math.pi, -math.pi, math.nextafter(math.pi, 4.0),
                            math.nextafter(math.pi, 3.0), 2.5], size=(200, 30))
        phi = np.cumsum(steps, axis=1) + rng.uniform(-1e3, 1e3, size=(200, 1))
        values = rng.choice([1.0, 1.0, 1.0, 0.0], size=phi.shape) * np.exp(1j * phi)
        ph = decompose_values(np.arange(30.0), values)
        for row, angle, singular in zip(values, ph.angle, ph.singular):
            one = decompose_values(np.arange(30.0), row)
            assert np.array_equal(one.singular, singular)
            assert [a.hex() for a in angle.tolist()] == [
                a.hex() for a in loop_unwrap(row, singular).tolist()]
            assert [a.hex() for a in angle.tolist()] == [a.hex() for a in one.angle.tolist()]

class TestStabilityIntervals:
    def test_growth_decay_arcs_delta_one(self):
        t = np.linspace(0.0, 4.0 * np.pi, 801)
        ph = decompose_values(t, coefficient_closed_form(1, 1.0, 1.0, t))
        intervals = stability_intervals(ph)
        kinds = [name for *_, name in intervals]
        assert kinds == [GROWING, DECAYING, GROWING, DECAYING]
        step = t[1] - t[0]
        (g0_start, g0_end, _), (d0_start, d0_end, _) = intervals[:2]
        assert abs(g0_start - 0.0) <= step + 1e-12
        assert abs(g0_end - math.pi) <= step + 1e-12
        assert abs(d0_start - math.pi) <= step + 1e-12
        assert abs(d0_end - 2.0 * math.pi) <= step + 1e-12

    def test_first_boundary_at_half_pi_for_delta_two(self):
        t = np.linspace(0.0, 2.0 * np.pi, 801)
        ph = decompose_values(t, coefficient_closed_form(1, 1.0, 2.0, t))
        intervals = stability_intervals(ph)
        step = t[1] - t[0]
        assert intervals[0][2] == GROWING
        assert abs(intervals[0][1] - math.pi / 2.0) <= step + 1e-12

    def test_constant_modulus_yields_no_intervals(self):
        t = np.linspace(0.0, 5.0, 50)
        ph = decompose_values(t, np.exp(1j * 0.3 * t))
        assert stability_intervals(ph) == []

    def test_too_few_samples(self):
        ph = decompose_values([0.0, 1.0], [1.0 + 0j, 2.0 + 0j])
        with pytest.raises(ValueError):
            stability_intervals(ph)

    def test_growth_matches_direct_modulus_slope(self):
        # growing intervals coincide with increasing |c| by construction
        t = np.linspace(0.0, 4.0 * np.pi, 401)
        values = coefficient_closed_form(1, 1.0, 1.0, t)
        ph = decompose_values(t, values)
        for t_start, t_end, name in stability_intervals(ph):
            k0 = int(np.argmin(np.abs(t - t_start)))
            k1 = int(np.argmin(np.abs(t - t_end)))
            dmod = np.diff(np.abs(values[k0 : k1 + 1]))
            if name == GROWING:
                assert np.all(dmod > 0)
            else:
                assert np.all(dmod < 0)


class TestEffectiveLevel:
    def test_closed_form_examples(self):
        t = np.array([0.0, math.pi / 2.0, math.pi])
        ph = decompose_values(t, coefficient_closed_form(1, 1.0, 1.0, t))
        times, levels = effective_level(5.0, ph)
        by_t = dict(zip(times, levels))
        assert by_t[math.pi / 2.0] == pytest.approx(5.5, abs=1e-12)
        assert by_t[math.pi] == pytest.approx(5.0, abs=1e-12)

    def test_zero_phase_gives_constant_level(self):
        t = np.linspace(0.0, 3.0, 10)
        ph = decompose_values(t, np.ones(10, dtype=complex))
        times, levels = effective_level(2.5, ph)
        assert np.allclose(levels, 2.5)
        assert 0.0 not in times

    def test_shifted_transition_frequency(self):
        t = np.linspace(0.0, math.pi, 41)
        upper = decompose_values(t, coefficient_closed_form(1, 1.0, 1.0, t))
        lower = decompose_values(t, np.ones(len(t), dtype=complex))
        times, shifted = shifted_transition_frequency(3.0, upper, 1.0, lower)
        # phi_upper(t) = t/2 - pi/2 on the first arc, phi_lower = 0
        expected = 2.0 - (t[1:] / 2.0 - math.pi / 2.0) / t[1:]
        assert np.allclose(shifted, expected[np.isin(t[1:], times)], atol=1e-9)

    def test_mismatched_grids_rejected(self):
        a = decompose_values([0.0, 1.0, 2.0], np.ones(3, dtype=complex))
        b = decompose_values([0.0, 1.5, 2.0], np.ones(3, dtype=complex))
        with pytest.raises(ValueError):
            shifted_transition_frequency(1.0, a, 0.0, b)
