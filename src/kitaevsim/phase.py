"""Modulus/argument decomposition of coefficient trajectories.

A coefficient series c(t) is split as c = A exp(i phi) with A = |c| >= 0
and phi the minimally-jumping continuation of arg c.  The complex
exponent ln A + i phi is the quantity whose real part governs the
stability of the initial state (growing |c| = transition underway) and
whose imaginary part shifts effective energy levels.

Samples where A is at most 1e-12 of the series' peak modulus are flagged
singular: the argument is genuinely undefined at c = 0, those samples
are excluded from slope estimation, and the unwrapping branch restarts
after each singular gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .perturbation import CoefficientSeries

GROWING = "GROWING"
DECAYING = "DECAYING"

TWO_PI = 2.0 * math.pi


@dataclass
class SubGeometricPhase:
    """Decomposed series: moduli A, log-moduli a, unwrapped arguments phi."""

    times: np.ndarray
    modulus: np.ndarray       # A >= 0
    log_modulus: np.ndarray   # a = ln A, -inf at singular samples
    angle: np.ndarray         # unwrapped phi, 0.0 placeholder at singular samples
    singular: np.ndarray      # bool flags where A <= 1e-12 * max A


def _unwrap_row(raw: list[float], singular: list[bool]) -> list[float]:
    """Minimal-jump continuation of one row of raw arguments, sample by
    sample; see :func:`_unwrap`."""
    angle = list(raw)
    # index and angle of the previous non-singular sample; a non-singular
    # first sample continues from 0.0, which keeps its raw argument in
    # [-pi, pi] but turns a -0.0 into 0.0
    prev, last = -1, 0.0
    for k, skip in enumerate(singular):
        if skip:
            angle[k] = 0.0
            continue
        if prev == k - 1:
            # minimal-jump continuation
            angle[k] = raw[k] + TWO_PI * round((last - raw[k]) / TWO_PI)
        # else the first sample of an arc: the branch restarts at the raw argument
        prev, last = k, angle[k]
    return angle


def _unwrap(raw: np.ndarray, singular: np.ndarray) -> np.ndarray:
    """Unwrapped arguments of (rows, samples) raw arguments in [-pi, pi].

    Each row is :func:`_unwrap_row`: a non-singular sample whose
    predecessor is non-singular (or which is the first, continuing from
    0.0) takes ``raw + TWO_PI * round((last - raw) / TWO_PI)`` with
    ``last`` the angle before it; any other non-singular sample keeps its
    raw argument, and a singular one holds 0.0.  The whole array is done
    in one pass: each sample's whole turns are taken against the previous
    raw argument and summed along its arc, and the angles they give are
    then checked against the sample-by-sample rule.  A row that fails the
    check, by a jump within rounding of half a turn or by a non-finite
    argument, is redone by :func:`_unwrap_row`, which also raises where
    ``round`` does.  So every angle is bit for bit that of the loop.
    """
    rows, n = raw.shape
    ok = ~singular
    # samples that continue the branch of the sample before them
    cont = ok.copy()
    cont[:, 1:] &= ok[:, :-1]
    before = np.zeros_like(raw)  # the first sample continues from 0.0
    before[:, 1:] = raw[:, :-1]
    with np.errstate(invalid="ignore"):
        turns = np.cumsum(np.where(cont, np.rint((before - raw) / TWO_PI), 0.0), axis=1)
        # less the sum up to the arc's first sample; + 0.0 turns -0.0 into 0.0
        arc = np.maximum.accumulate(np.where(cont, 0, np.arange(1, n + 1)), axis=1)
        turns -= np.take_along_axis(np.hstack([np.zeros((rows, 1)), turns]), arc, axis=1)
        turns += 0.0
        angle = np.where(cont, raw + TWO_PI * turns, raw)
        angle[singular] = 0.0
        before[:, 1:] = angle[:, :-1]
        wrong = cont & (np.rint((before - raw) / TWO_PI) != turns)
    for r in np.flatnonzero(wrong.any(axis=1)).tolist():
        angle[r] = _unwrap_row(raw[r].tolist(), singular[r].tolist())
    return angle


def decompose_values(times, values) -> SubGeometricPhase:
    """Decompose raw complex samples; see :func:`decompose`.

    ``values`` is one series over ``times`` or a (rows, samples) array of
    series over the same times, each row decomposed on its own.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.ndim not in (1, 2) or values.shape[-1] != len(times):
        raise ValueError("times and values length mismatch")
    rows = np.atleast_2d(values)

    modulus = np.abs(rows)
    # relative to each row's peak; an all-zero row is singular throughout
    peak = modulus.max(axis=1, initial=0.0, keepdims=True)
    singular = modulus <= np.where(peak > 0, 1e-12 * peak, math.inf)
    log_modulus = np.full(rows.shape, -math.inf)
    np.log(modulus, out=log_modulus, where=~singular)
    angle = _unwrap(np.angle(rows), singular)

    return SubGeometricPhase(
        times=times,
        modulus=modulus.reshape(values.shape),
        log_modulus=log_modulus.reshape(values.shape),
        angle=angle.reshape(values.shape),
        singular=singular.reshape(values.shape),
    )


def decompose(series: CoefficientSeries) -> SubGeometricPhase:
    """Split a coefficient series into modulus and unwrapped argument."""
    return decompose_values(series.times, series.values)


def runs(values) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of equal consecutive
    values in a nonempty 1-D array."""
    values = np.asarray(values)
    ends = np.flatnonzero(values[1:] != values[:-1])
    return np.r_[0, ends + 1], np.r_[ends, len(values) - 1]


def _slopes(phase: SubGeometricPhase) -> np.ndarray:
    """Finite-difference slope of a(t); NaN where not estimable.

    A non-singular sample takes the central difference over its
    non-singular neighbours, or the one-sided difference to the one it
    has; a sample with neither, and a singular one, gets NaN.
    """
    t, a, ok = phase.times, phase.log_modulus, ~phase.singular
    # each sample's non-singular neighbour, or the sample itself: a sample
    # with neither divides 0 by 0
    k = np.arange(len(t))
    left = k - np.r_[False, ok[:-1]]
    right = k + np.r_[ok[1:], False]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (a[right] - a[left]) / (t[right] - t[left])
    return np.where(ok, slope, np.nan)


def stability_intervals(phase: SubGeometricPhase) -> list[tuple[float, float, str]]:
    """Maximal runs where ln A grows or decays beyond a slope tolerance.

    Boundaries fall at classification changes and at singular samples.
    """
    ok = ~phase.singular
    if int(ok.sum()) < 3:
        raise ValueError("need at least 3 non-singular samples")
    # relative to the peak |ln A|, plus a floor that leaves constant-modulus
    # series (a identically zero up to roundoff) unclassified
    slope_tol = 1e-9 * float(np.max(np.abs(phase.log_modulus[ok]))) + 1e-12

    # +1 growing, -1 decaying, 0 unclassified (NaN slopes included)
    slope = _slopes(phase)
    labels = (slope > slope_tol).astype(int) - (slope < -slope_tol)
    first, last = runs(labels)
    return [(float(phase.times[s]), float(phase.times[e]), GROWING if labels[s] > 0 else DECAYING)
            for s, e in zip(first.tolist(), last.tolist()) if labels[s]]


def effective_level(e: float, phase: SubGeometricPhase) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise shifted level E - phi(t)/t on t > 0, non-singular samples."""
    mask = (~phase.singular) & (phase.times > 0)
    t = phase.times[mask]
    return t, e - phase.angle[mask] / t


def shifted_transition_frequency(
    e_upper: float,
    phase_upper: SubGeometricPhase,
    e_lower: float,
    phase_lower: SubGeometricPhase,
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted resonance between two levels including their phase shifts.

    Equals the difference of the two effective-level series:
    (E_u - E_l) + (phi_l(t) - phi_u(t)) / t.
    """
    if not np.array_equal(phase_upper.times, phase_lower.times):
        raise ValueError("phase series must share one time grid")
    mask = (
        (~phase_upper.singular) & (~phase_lower.singular) & (phase_upper.times > 0)
    )
    t = phase_upper.times[mask]
    shift = (phase_lower.angle[mask] - phase_upper.angle[mask]) / t
    return t, (e_upper - e_lower) + shift
