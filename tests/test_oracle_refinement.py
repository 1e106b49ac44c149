"""``exact_evolve``'s step control against the global step-doubling loop.

``global_doubling`` is the loop ``exact_evolve`` used before its step
count was chosen per output interval: every interval gets the same
substep count, doubled from 4 over the whole trajectory (rerun from
t = 0 each time) until the Richardson estimate max|coarse - fine| / 15
meets the tolerance.  Run at tol / 100 it is a fixed-step reference
whose own error estimate is at most tol / 100.  Its steps end on a
custom drive's samples, as ``exact_evolve``'s do: a step across a kink
of the interpolated drive converges below fourth order, and the
doubling would then run to thousands of CF4 steps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kitaevsim.correlation as correlation_mod
import kitaevsim.oracle as oracle_mod
from kitaevsim.correlation import correlation_exact_scan
from kitaevsim.hamiltonian import CouplingParams
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, build_product_ket
from kitaevsim.oracle import evolve_fixed_substeps, exact_evolve
from kitaevsim.perturbation import DriveSpec

GEOMS = {shape: build_lattice(*shape) for shape in ((2, 2), (2, 3), (3, 2))}

couplings = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
amplitudes = st.one_of(st.just(0.0), st.floats(0.001, 0.3))


def global_doubling(geom, params, drive, psi0, times, tol):
    """Kets and estimate of the whole-trajectory step-doubling loop."""
    grid = times
    if drive.kind == "custom":
        grid = np.union1d(times, drive.t_samples[(drive.t_samples > times[0]) & (drive.t_samples < times[-1])])
    at_times = np.searchsorted(grid, times)

    def run(substeps):
        kets = evolve_fixed_substeps(geom, params, drive, psi0, grid, substeps)
        return [kets[i] for i in at_times]

    substeps = 4
    prev = run(substeps)
    while True:
        cur = run(2 * substeps)
        estimate = max(float(np.max(np.abs(a - b))) for a, b in zip(prev, cur)) / 15.0
        substeps *= 2
        prev = cur
        if estimate <= tol:
            return prev, estimate


@settings(max_examples=25, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    d=amplitudes,
    omega=st.floats(-2.0, 2.0),
    custom=st.booleans(),
    t_end=st.floats(0.2, 1.5),
    samples=st.integers(2, 5),
    log_tol=st.floats(-11.0, -8.0),
    data=st.data(),
)
def test_kets_match_a_fine_fixed_step_run(
    shape, jx, jy, jz, d, omega, custom, t_end, samples, log_tol, data
):
    geom = GEOMS[shape]
    plaquette = data.draw(st.integers(0, geom.n_plaquettes - 1), label="plaquette")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=d, omega=omega)
    if custom:
        grid = np.linspace(0.0, t_end, 7)
        values = d * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 7))
        drive = DriveSpec.custom(grid, values, plaquette=plaquette)
    else:
        drive = DriveSpec.exponential(d, omega, plaquette=plaquette)
    dim = 2**geom.n_sites
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, t_end, samples)
    tol = 10.0**log_tol

    res = exact_evolve(geom, params, drive, psi0, times, tol=tol)
    ref, ref_estimate = global_doubling(geom, params, drive, psi0, times, tol / 100.0)

    assert ref_estimate <= tol / 100.0
    assert res.error_estimate <= tol
    assert len(res.kets) == samples
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(res.kets, ref))
    assert worst <= 2.0 * tol


GEOM = GEOMS[(2, 2)]
PSI0 = build_product_ket(GEOM, FlipConfig(0, GEOM.n_plaquettes))


def _driven(d=0.05, omega=0.7):
    return CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=d, omega=omega), DriveSpec.exponential(d, omega)


def _record_passes(monkeypatch):
    """Route every evolve_fixed_substeps call through a recorder."""
    calls = []
    real = oracle_mod.evolve_fixed_substeps

    def recording(geom, params, drive, psi0, times, substeps, **kwargs):
        calls.append((tuple(times), substeps))
        return real(geom, params, drive, psi0, times, substeps, **kwargs)

    monkeypatch.setattr(oracle_mod, "evolve_fixed_substeps", recording)
    return calls


def _window(grid):
    return float(grid[0]), float(grid[-1])


def test_rk4_steps_counts_every_pass(monkeypatch):
    calls = _record_passes(monkeypatch)
    params, drive = _driven()
    times = np.linspace(0.0, 2.0, 5)
    res = exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-10)
    assert res.cf4_steps == sum(s * (len(t) - 1) for t, s in calls)
    windows = [_window(t) for t, _ in calls]
    assert sorted(set(windows)) == [(0.0, 1.0), (1.0, 2.0)]
    for window in set(windows):  # a coarse and a fine pass each
        assert windows.count(window) >= 2
    assert len(res.substeps) == len(times) - 1
    assert all(isinstance(s, int) and s >= 1 for s in res.substeps)
    assert res.substeps[0] == res.substeps[1] and res.substeps[2] == res.substeps[3]
    assert res.error_estimate <= 1e-10


def _count_compiles(monkeypatch):
    compiled = []
    real = oracle_mod._Generator

    def counting(*args):
        compiled.append(args)
        return real(*args)

    for module in (oracle_mod, correlation_mod):
        monkeypatch.setattr(module, "_Generator", counting)
    return compiled


def test_right_hand_side_is_compiled_once_per_run(monkeypatch):
    compiled = _count_compiles(monkeypatch)
    params, drive = _driven()
    res = exact_evolve(GEOM, params, drive, PSI0, np.linspace(0.0, 2.0, 5), tol=1e-10)
    assert len(compiled) == 1 and res.cf4_steps > 8


def test_steps_end_on_custom_drive_samples(monkeypatch):
    calls = _record_passes(monkeypatch)
    grid = np.array([0.0, 0.3, 0.5, 1.1, 2.0])
    drive = DriveSpec.custom(grid, [0.05, 0.02j, -0.04, 0.01, 0.03])
    params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=1.0, omega=0.0)
    times = np.array([0.0, 1.0, 2.0])
    res = exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-10)
    pieces = {(0.0, 1.0): (0.0, 0.3, 0.5, 1.0), (1.0, 2.0): (1.0, 1.1, 2.0)}
    for t, _ in calls:
        assert t == pieces[(t[0], t[-1])]
    assert res.cf4_steps == sum(s * (len(t) - 1) for t, s in calls)


def test_correlation_scan_replays_the_accepted_substeps(monkeypatch):
    _check_scan_replays(monkeypatch, d=0.01)


def test_undriven_correlation_scan_replays_its_one_pass(monkeypatch):
    passes = _check_scan_replays(monkeypatch, d=0.0)
    # one pass of one substep per interval over the whole grid
    assert passes == [(tuple(np.linspace(0.0, 1.5, 9)), 1)]


def _check_scan_replays(monkeypatch, d):
    """Run a 2x2 correlation scan at drive amplitude ``d``: every vector
    replays the accepted substeps interval by interval, and the generator
    is compiled once.  Returns the passes of the scan's exact run."""
    calls = _record_passes(monkeypatch)
    compiled = _count_compiles(monkeypatch)
    runs = []
    real_exact = correlation_mod.exact_evolve

    def keep(*args, **kwargs):
        res = real_exact(*args, **kwargs)
        runs.append((res, len(calls)))
        return res

    monkeypatch.setattr(correlation_mod, "exact_evolve", keep)
    params, drive = _driven(d=d, omega=0.5)
    pairs = [(0, 1), (2, 3)]
    components = [("x", "x"), ("y", "z")]
    correlation_exact_scan(
        GEOM, params, drive, FlipConfig(0, 4), pairs, components, t=1.5, tol=1e-9
    )
    (res, seen), = runs
    times = np.linspace(0.0, 1.5, 9)
    one_vector = [((times[k], times[k + 1]), s) for k, s in enumerate(res.substeps)]
    vectors = 1 + len({(j, b) for _, j in pairs for _, b in components})
    assert calls[seen:] == one_vector * vectors
    assert len(compiled) == 1
    return calls[:seen]


def test_overflowing_pass_ends_in_refinement_exhausted(monkeypatch):
    # over t = 1e200 the first Krylov exponential of a CF4 step misses its
    # error bound and returns NaN; the substeps keep growing until the
    # step budget stops the run
    monkeypatch.setattr(oracle_mod, "_MAX_TOTAL_STEPS", 1000)
    params, drive = _driven()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="refinement exhausted"):
            exact_evolve(GEOM, params, drive, PSI0, np.array([0.0, 1e200]), tol=1e-9)


def test_an_interval_is_accepted_only_within_its_share(monkeypatch):
    params, drive = _driven()
    times = np.linspace(0.0, 2.0, 9)
    coarse, fine = (
        evolve_fixed_substeps(GEOM, params, drive, PSI0, grid, 1)[-1] for grid in (times[:3:2], times[:3])
    )
    # the first window's one-substep estimate fits tol but not its share tol / 4
    tol = 2.0 * float(np.max(np.abs(coarse - fine))) / 15.0

    passes = {}
    real = oracle_mod.evolve_fixed_substeps

    def recording(geom, params, drive, psi0, grid, substeps, **kwargs):
        kets = real(geom, params, drive, psi0, grid, substeps, **kwargs)
        passes.setdefault(_window(grid), []).append(kets[-1])
        return kets

    monkeypatch.setattr(oracle_mod, "evolve_fixed_substeps", recording)
    res = exact_evolve(GEOM, params, drive, PSI0, times, tol=tol)
    windows = [(float(t0), float(t2)) for t0, t2 in zip(times[:-2:2], times[2::2])]
    assert sorted(passes) == windows
    assert len(passes[windows[0]]) > 2  # the first coarse/fine pair was rejected
    estimates = []
    for t0, t2 in windows:
        coarse, fine = passes[(t0, t2)][-2:]
        estimates.append(float(np.max(np.abs(coarse - fine))) / 15.0)
        assert estimates[-1] <= tol * (t2 - t0) / (times[-1] - times[0])
    assert res.error_estimate == pytest.approx(sum(estimates) + res.krylov_error, rel=1e-12)


def _windows_of(calls):
    """The windows of a run's passes, in order, each with its passes."""
    windows = []
    for grid, substeps in calls:
        if not windows or windows[-1][0] != _window(grid):
            windows.append((_window(grid), []))
        windows[-1][1].append((grid, substeps))
    return windows


def test_two_intervals_at_the_floor_take_one_pair_of_passes(monkeypatch):
    calls = _record_passes(monkeypatch)
    params, drive = _driven()
    times = np.array([0.0, 0.05, 0.1])
    res = exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-9)
    assert calls == [((0.0, 0.1), 1), ((0.0, 0.05, 0.1), 1)]
    assert res.cf4_steps == 3
    assert res.substeps == (1, 1)
    assert res.error_estimate <= 1e-9


def test_the_last_of_an_odd_count_of_intervals_is_its_own_window(monkeypatch):
    calls = _record_passes(monkeypatch)
    params, drive = _driven()
    times = np.linspace(0.0, 1.5, 4)
    res = exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-10)
    windows = _windows_of(calls)
    assert [w for w, _ in windows] == [(0.0, 1.0), (1.0, 1.5)]
    passes = windows[1][1]
    for (coarse, s), (fine, two_s) in zip(passes[::2], passes[1::2]):
        assert coarse == fine == (1.0, 1.5) and two_s == 2 * s
    assert res.substeps[2] == passes[-1][1]
    assert res.cf4_steps == sum(s * (len(t) - 1) for t, s in calls)


@pytest.mark.parametrize(
    "samples, windows",
    [
        ([0.0, 1.0, 2.0], [(0.0, 1.0), (1.0, 2.0)]),  # a sample at t1
        ([0.0, 0.4, 2.0], [(0.0, 1.0), (1.0, 2.0)]),  # one inside interval 0
        ([-1.0, 0.0, 2.0, 3.0], [(0.0, 2.0)]),  # none inside (t0, t2)
    ],
)
def test_a_custom_drive_pairs_no_intervals_across_a_sample(monkeypatch, samples, windows):
    calls = _record_passes(monkeypatch)
    values = 0.05 * np.exp(0.7j * np.arange(len(samples)))
    drive = DriveSpec.custom(np.array(samples), values)
    params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=1.0, omega=0.0)
    times = np.array([0.0, 1.0, 2.0])
    exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-10)
    assert [w for w, _ in _windows_of(calls)] == windows


def test_unequal_intervals_never_pair(monkeypatch):
    calls = _record_passes(monkeypatch)
    params, drive = _driven()
    times = np.array([0.0, 0.5, 1.5, 2.0, 2.5])
    res = exact_evolve(GEOM, params, drive, PSI0, times, tol=1e-10)
    assert [w for w, _ in _windows_of(calls)] == [(0.0, 0.5), (0.5, 1.5), (1.5, 2.5)]
    assert res.error_estimate <= 1e-10


def test_a_pairs_middle_ket_is_within_tol_of_a_fine_fixed_run():
    # the estimate only compares the kets at the window's end
    tol = 1e-10
    params = CouplingParams(jx=1.0, jy=1.0, jz=1.0, d=0.3, omega=0.7)
    drive = DriveSpec.exponential(0.3, 0.7)
    times = np.linspace(0.0, 2.0, 3)
    res = exact_evolve(GEOM, params, drive, PSI0, times, tol=tol)
    ref = evolve_fixed_substeps(GEOM, params, drive, PSI0, times, 1024)
    assert res.substeps[0] == res.substeps[1]
    for got, want in zip(res.kets, ref):
        assert float(np.max(np.abs(got - want))) <= tol
