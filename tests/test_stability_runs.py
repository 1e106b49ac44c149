"""The run finder of :mod:`kitaevsim.phase` and the stability analysis
built on it, held bit for bit to the per-sample walks they replaced."""

import math

import numpy as np

from kitaevsim.phase import _slopes, decompose_values, runs, stability_intervals
from reference import loop_slopes, loop_stability_intervals


def loop_runs(values) -> list[tuple[int, int]]:
    """(first, last) index of each maximal run of equal values, walked one by one."""
    out = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] != values[start]:
            out.append((start, k - 1))
            start = k
    return out


def random_series(rng):
    """1 to 40 samples whose moduli mix exact zeros, moduli under the
    1e-12 singular threshold, isolated non-singular samples, constant
    stretches and slopes about the slope tolerance, over an even or an
    uneven time grid."""
    n = int(rng.integers(1, 41))
    if rng.random() < 0.5:
        times = np.linspace(0.0, rng.uniform(0.5, 20.0), n)
    else:
        times = np.cumsum(rng.uniform(0.05, 1.0, n))
    kind = rng.integers(5)
    if kind == 0:
        # constant modulus: a is flat up to roundoff
        modulus = np.full(n, rng.uniform(0.1, 3.0))
    elif kind == 1:
        # every other sample is zero, so the rest are isolated
        modulus = rng.uniform(0.1, 3.0, n)
        modulus[int(rng.integers(2))::2] = 0.0
    elif kind == 4:
        # ln A moves by 1e-14 to 1e-7 a sample: some slopes fall either
        # side of the tolerance 1e-9 * max |ln A| + 1e-12
        modulus = rng.uniform(0.1, 3.0) * np.exp(10.0 ** rng.uniform(-14, -7) * rng.normal(size=n))
    else:
        modulus = np.exp(0.5 * rng.normal(size=n).cumsum())
        if kind == 3:
            # constant stretches
            modulus = np.repeat(modulus, rng.integers(1, 4, n))[:n]
    drop = rng.random(n)
    gaps = rng.uniform(0.0, 0.6)
    modulus[drop < gaps / 2] = 0.0
    modulus[(drop >= gaps / 2) & (drop < gaps)] *= 1e-14
    return decompose_values(times, modulus * np.exp(1j * rng.uniform(-math.pi, math.pi, n)))


def _outcome(intervals, phase):
    """The intervals, or the message of the ValueError raised."""
    try:
        return intervals(phase)
    except ValueError as exc:
        return str(exc)


def test_runs_match_a_plain_loop():
    rng = np.random.default_rng(7)
    arrays = [np.zeros(1, dtype=int), np.ones(17, dtype=bool), np.full(5, -1)]
    for _ in range(2000):
        n = int(rng.integers(1, 31))
        arrays.append(rng.integers(-1, 2, n))
        arrays.append(rng.random(n) < 0.3)
    for values in arrays:
        first, last = runs(values)
        assert list(zip(first.tolist(), last.tolist())) == loop_runs(values.tolist())


def test_slopes_and_intervals_match_the_sample_loops():
    rng = np.random.default_rng(11)
    outcomes = set()
    for _ in range(5000):
        phase = random_series(rng)
        assert [s.hex() for s in _slopes(phase).tolist()] == [
            s.hex() for s in loop_slopes(phase).tolist()]
        got = _outcome(stability_intervals, phase)
        assert got == _outcome(loop_stability_intervals, phase)
        outcomes.add("error" if isinstance(got, str) else bool(got))
    # the draws reach the error, series without intervals and with them
    assert outcomes == {"error", False, True}

