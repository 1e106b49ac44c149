"""The CF4 Magnus propagator and its Taylor exponential against references.

The fixed-step CF4 propagator is checked against classical RK4 at fine
steps, and ``expv`` against the dense exponential of H0 + b S, built
from the Kronecker products of ``tests/reference.py`` and exponentiated
by scaling and squaring (``expm_taylor``): its value, and its returned
truncation bound against its true error, a complex drive value's
growth of that error included.  ``rk4_fixed_substeps`` is the
RK4 core the oracle ran before CF4 replaced it, on -i (H0 + B(t) S) psi
from the oracle's compiled generator.  One undriven ``exact_evolve``
run whose exponentials all split into Taylor sub-steps is checked
against the eigendecomposition of dense H0.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim import oracle
from kitaevsim.hamiltonian import CouplingParams, drive_string, h0_terms
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, build_product_ket
from kitaevsim.oracle import _Generator, evolve_fixed_substeps, expv
from kitaevsim.perturbation import DriveSpec

from reference import dense_h0_kron, expm_taylor, kron_string

GEOMS = {shape: build_lattice(*shape) for shape in ((2, 2), (2, 3), (3, 2))}

couplings = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
amplitudes = st.one_of(st.just(0.0), st.floats(0.001, 0.3))
# nonzero couplings: with two of them zero, H0 + b S can be defective
nonzero = st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), st.floats(0.1, 1.0))


def rk4_fixed_substeps(geom, params, drive, psi0, times, substeps):
    """Classical RK4 with a fixed number of substeps per output interval."""
    gen = _Generator(geom, params, drive)

    def f(t, psi):
        return -1j * gen.apply(psi, complex(drive.b_of(t)))

    psi = psi0.astype(complex, copy=True)
    kets = [psi.copy()]
    for k in range(len(times) - 1):
        h = (times[k + 1] - times[k]) / substeps
        t = times[k]
        for _ in range(substeps):
            k1 = f(t, psi)
            k2 = f(t + 0.5 * h, psi + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, psi + 0.5 * h * k2)
            k4 = f(t + h, psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        kets.append(psi.copy())
    return kets


def _random_ket(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@settings(max_examples=15, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    d=amplitudes,
    omega=st.floats(-2.0, 2.0),
    custom=st.booleans(),
    t_end=st.floats(0.1, 0.5),
    samples=st.integers(2, 3),
    data=st.data(),
)
def test_cf4_matches_rk4_at_fine_steps(
    shape, jx, jy, jz, d, omega, custom, t_end, samples, data
):
    geom = GEOMS[shape]
    plaquette = data.draw(st.integers(0, geom.n_plaquettes - 1), label="plaquette")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=d, omega=omega)
    times = np.linspace(0.0, t_end, samples)
    if custom:
        # samples on the output grid's multiples, so every step ends on them
        grid = np.linspace(0.0, t_end, 2 * (samples - 1) + 1)
        drive = DriveSpec.custom(grid, d * np.exp(2j * np.pi * rng.uniform(size=len(grid))), plaquette=plaquette)
    else:
        drive = DriveSpec.exponential(d, omega, plaquette=plaquette)
    psi0 = _random_ket(rng, 2**geom.n_sites)
    # RK4's error ~ (h r)^4 per unit time, r the larger of ||H|| and the
    # drive's frequency: hold h r to 0.01
    rate = len(geom.bonds) * max(abs(jx), abs(jy), abs(jz)) + d + abs(omega)
    dt = times[1] - times[0]
    rk4_steps = 2 * max(1, math.ceil(dt * rate / 0.02))
    cf4_steps = 2 * max(1, math.ceil(dt / 0.02))

    ref = rk4_fixed_substeps(geom, params, drive, psi0, times, rk4_steps)
    got = evolve_fixed_substeps(geom, params, drive, psi0, times, cf4_steps)
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(got, ref))
    assert worst <= 1e-10


@settings(max_examples=15, deadline=None, database=None)
@given(
    jx=nonzero,
    jy=nonzero,
    jz=nonzero,
    b_re=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
    b_im=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
    tau=st.floats(0.01, 3.0),
    data=st.data(),
)
def test_expv_matches_dense_exponential(jx, jy, jz, b_re, b_im, tau, data):
    geom = GEOMS[(2, 2)]
    plaquette = data.draw(st.integers(0, geom.n_plaquettes - 1), label="plaquette")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=1.0)
    drive = DriveSpec.exponential(1.0, 0.0, plaquette=plaquette)
    b = complex(b_re, b_im)
    dim = 2**geom.n_sites
    string = drive_string(geom, plaquette)
    dense = dense_h0_kron(geom, params) + b * kron_string(geom.n_sites, string)
    v = _random_ket(rng, dim)
    ref = expm_taylor(-1j * tau * dense) @ v

    f = _Generator(geom, params, drive)
    f.set_drive(b)
    got, err = expv(lambda x: f.apply(x, b), v, -1j * tau, 1e-14, f.bound, tau * abs(b.imag))
    assert err <= 1e-14
    assert float(np.max(np.abs(got - ref))) <= 1e-12


@settings(max_examples=20, deadline=None, database=None)
@given(
    jx=nonzero,
    jy=nonzero,
    jz=nonzero,
    b_re=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
    b_im=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
    tau=st.floats(0.01, 3.0),
    tol=st.sampled_from([1e-6, 1e-9]),
    data=st.data(),
)
def test_expv_bound_covers_its_true_error(jx, jy, jz, b_re, b_im, tau, tol, data):
    # a loose tolerance stops the series early, so the bound is tested
    # where the truncation error is far above rounding
    geom = GEOMS[(2, 2)]
    plaquette = data.draw(st.integers(0, geom.n_plaquettes - 1), label="plaquette")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=1.0)
    f = _Generator(geom, params, DriveSpec.exponential(1.0, 0.0, plaquette=plaquette))
    b = complex(b_re, b_im)
    f.set_drive(b)
    string = drive_string(geom, plaquette)
    dense = dense_h0_kron(geom, params) + b * kron_string(geom.n_sites, string)
    v = _random_ket(rng, 2**geom.n_sites)
    ref = expm_taylor(-1j * tau * dense) @ v

    # the generator's bound is the largest absolute row sum of H0 + b S
    assert math.isclose(f.bound, float(np.max(np.sum(np.abs(dense), axis=1))), rel_tol=1e-12)
    # -i tau (H0 + b S) has Hermitian part tau Im(b) S, whose largest
    # eigenvalue is tau |Im b|
    got, err = expv(f.matvec, v, -1j * tau, tol, f.bound, tau * abs(b.imag))
    assert err <= tol
    assert float(np.linalg.norm(got - ref)) <= err + 1e-13


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_expv_bound_covers_the_growth_of_a_complex_drive_value(tol):
    # exp(-i tau (H0 + b S)) with Im b != 0 is no contraction: a sub-step's
    # truncation error grows through the sub-steps after it; a bound that
    # left that out fell below this example's true error, by factors of
    # 1.23 (tol 1e-6) and 1.30 (tol 1e-9)
    geom = GEOMS[(2, 2)]
    params = CouplingParams(jx=0.1, jy=-0.95, jz=-0.2, d=1.0)
    f = _Generator(geom, params, DriveSpec.exponential(1.0, 0.0, plaquette=0))
    b, tau = complex(-0.5, 0.5), 3.0
    f.set_drive(b)
    dense = dense_h0_kron(geom, params) + b * kron_string(geom.n_sites, drive_string(geom, 0))
    v = _random_ket(np.random.default_rng(1), 2**geom.n_sites)
    ref = expm_taylor(-1j * tau * dense) @ v
    got, err = expv(f.matvec, v, -1j * tau, tol, f.bound, tau * abs(b.imag))
    assert err <= tol
    assert float(np.linalg.norm(got - ref)) <= err


def test_expv_past_the_sub_step_cap_gives_nan():
    geom = GEOMS[(2, 2)]
    f = _Generator(geom, CouplingParams(jx=1.0, jy=1.0, jz=1.0), DriveSpec.exponential(0.0, 0.0))
    v = _random_ket(np.random.default_rng(3), 2**geom.n_sites)
    calls = []

    def counted(x):
        calls.append(1)
        return f.matvec(x)

    # theta = |scale| bound: past the cap no matvec is taken, just below it
    # the series converges
    cap = oracle._THETA * oracle._MAX_SUB_STEPS
    got, err = expv(counted, v, -1j * (cap + 1.0) / f.bound, 1e-9, f.bound, 0.0)
    assert np.all(np.isnan(got)) and err == math.inf
    assert not calls
    got, err = expv(counted, v, -1j * (cap - 1.0) / f.bound, 1e-9, f.bound, 0.0)
    assert np.all(np.isfinite(got)) and err <= 1e-9
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-9


@settings(max_examples=40, deadline=None, database=None)
@given(log_n=st.integers(0, 15), seed=st.integers(0, 2**32 - 1))
def test_chunked_inner_products_match_numpy(log_n, seed):
    rng = np.random.default_rng(seed)
    n = 2**log_n
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    scale = math.sqrt(n)
    assert abs(oracle._vdot(a, b) - np.vdot(a, b)) <= 1e-13 * scale


def test_exact_evolve_through_krylov_sub_steps(monkeypatch):
    # one output interval of length 10: each exponential exp(-5i H0) has
    # theta = 5 ||H0|| far above 2, so expv covers it in sub-steps
    geom = GEOMS[(2, 2)]
    params = CouplingParams(jx=1.0, jy=0.8, jz=1.2)
    psi0 = build_product_ket(geom, FlipConfig(0, geom.n_plaquettes))
    tol = 1e-9
    matvecs = []

    def counting_expv(apply, v, scale, tol, bound, growth):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return apply(x)

        out = expv(counted, v, scale, tol, bound, growth)
        matvecs.append(calls[0])
        return out

    monkeypatch.setattr(oracle, "expv", counting_expv)
    result = oracle.exact_evolve(
        geom, params, DriveSpec.exponential(0.0, 0.0), psi0, np.array([0.0, 10.0]), tol=tol
    )
    # one sub-step sums at most _MAX_TAYLOR_TERMS terms of one matvec each
    assert matvecs and min(matvecs) > oracle._MAX_TAYLOR_TERMS
    assert result.matvecs == sum(matvecs)
    evals, vecs = np.linalg.eigh(dense_h0_kron(geom, params))
    ref = vecs @ (np.exp(-10.0j * evals) * (vecs.conj().T @ psi0))
    assert float(np.max(np.abs(result.kets[-1] - ref))) <= 10.0 * tol
    assert result.norm_drift <= 1e-8


def test_result_counts_every_matvec_of_every_pass(monkeypatch):
    geom = GEOMS[(2, 2)]
    params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=0.05, omega=0.7)
    drive = DriveSpec.exponential(0.05, 0.7, plaquette=0)
    psi0 = build_product_ket(geom, FlipConfig(0, geom.n_plaquettes))
    matvecs = []

    def counting_expv(apply, v, scale, tol, bound, growth):
        def counted(x):
            matvecs.append(1)
            return apply(x)

        return expv(counted, v, scale, tol, bound, growth)

    monkeypatch.setattr(oracle, "expv", counting_expv)
    result = oracle.exact_evolve(geom, params, drive, psi0, np.linspace(0.0, 2.0, 4), tol=1e-10)
    assert result.matvecs == len(matvecs) > 0
    # the energy drift's matvecs are not a pass's: a driven run has none,
    # and an undriven one counts only its passes
    undriven = oracle.exact_evolve(
        geom, params, DriveSpec.exponential(0.0, 0.0), psi0, np.linspace(0.0, 2.0, 4), tol=1e-10
    )
    assert undriven.energy_drift is not None
    assert undriven.matvecs == len(matvecs) - result.matvecs


def undriven_reference(geom, params, psi0, times):
    """exp(-i H0 t) psi0 at each of ``times``, from the eigendecomposition
    of dense H0 one block at a time.

    The x and y bonds flip pairs of bits, so H0 connects only indices that
    differ by a sum of their masks, and each coset of those sums is one
    block: eight of 512 at 2x3, where the whole 4096 x 4096 matrix took
    23 s and 0.7 GB to diagonalize.  The entries come from the bond terms
    of ``h0_terms``, which ``test_compiled_rhs.py`` holds to the reference
    kernels.
    """
    dim = len(psi0)
    terms = list(h0_terms(geom, params))
    span = np.zeros(1, dtype=np.intp)
    for mask, _ in terms:
        span = np.union1d(span, span ^ mask)
    out = np.empty((len(times), dim), dtype=complex)
    left = np.ones(dim, dtype=bool)
    while left.any():
        block = np.sort(np.flatnonzero(left)[0] ^ span)
        left[block] = False
        where = np.full(dim, -1)
        where[block] = np.arange(len(block))
        h = np.zeros((len(block), len(block)))
        for mask, coeff in terms:
            # row k holds the term's one entry, in column k ^ mask
            h[where[block], where[block ^ mask]] += coeff[block]
        evals, vecs = np.linalg.eigh(h)
        out[:, block] = (np.exp(-1j * np.outer(times, evals)) * (vecs.T @ psi0[block])) @ vecs.T
    return out


UNDRIVEN = CouplingParams(jx=1.0, jy=0.8, jz=1.2)


@pytest.mark.parametrize(
    "shape, times, most_matvecs",
    [
        # a Richardson pair per two intervals took 1 792
        ((2, 3), np.linspace(0.0, 2.0 * np.pi, 9), 896),
        # each interval's one step is past the sub-step cap, so it takes two
        ((2, 2), np.linspace(0.0, 100.0, 3), None),
    ],
    ids=["2x3 to 2pi", "2x2 to 100"],
)
def test_an_undriven_run_is_one_pass(monkeypatch, shape, times, most_matvecs):
    geom = GEOMS[shape]
    psi0 = build_product_ket(geom, FlipConfig(0, geom.n_plaquettes))
    tol = 1e-9
    calls = []
    real = oracle.evolve_fixed_substeps

    def recording(geom, params, drive, psi0, times, substeps, **kwargs):
        calls.append(substeps)
        return real(geom, params, drive, psi0, times, substeps, **kwargs)

    monkeypatch.setattr(oracle, "evolve_fixed_substeps", recording)
    drive = DriveSpec.exponential(0.0, 0.0)
    res = oracle.exact_evolve(geom, UNDRIVEN, drive, psi0, times, tol=tol)
    bound = oracle._Generator(geom, UNDRIVEN, drive).bound
    widths = np.diff(times)
    cap = oracle._THETA * oracle._MAX_SUB_STEPS
    # the fewest substeps whose exponentials, theta = h bound / 2, fit the cap
    assert all(0.5 * w / n * bound <= cap for w, n in zip(widths, res.substeps))
    assert all(n == 1 or 0.5 * w / (n - 1) * bound > cap for w, n in zip(widths, res.substeps))
    assert len(calls) == 1 and res.cf4_steps == sum(res.substeps)
    if most_matvecs is not None:
        assert res.substeps == (1,) * len(widths)
        assert res.matvecs <= most_matvecs
    else:
        assert min(res.substeps) > 1
    assert res.error_estimate == res.krylov_error <= tol
    ref = undriven_reference(geom, UNDRIVEN, psi0, times)
    assert max(float(np.max(np.abs(a - b))) for a, b in zip(res.kets, ref)) <= tol


@pytest.mark.parametrize(
    "shape, bits, t_end, samples",
    [((2, 2), 0x0, 2.0 * np.pi / 0.7, 5), ((2, 2), 0x5, 2.0, 5), ((2, 3), 0x0, 2.0 * np.pi, 9)],
    ids=["criterion 10", "2x2 0x5", "2x3 to 2pi"],
)
def test_the_one_pass_keeps_the_fine_kets_of_the_richardson_pairs(shape, bits, t_end, samples):
    # where every window accepts its first pair, at one substep per
    # interval, the pairs' fine pass is the one pass, bit for bit
    geom = GEOMS[shape]
    psi0 = build_product_ket(geom, FlipConfig(bits, geom.n_plaquettes)).astype(complex)
    times = np.linspace(0.0, t_end, samples)
    f = oracle._Generator(geom, UNDRIVEN, DriveSpec.exponential(0.0, 0.0))
    f.krylov_tol = oracle._KRYLOV_SHARE * 1e-9 / t_end
    pairs = oracle._windows(f, psi0, times, 1e-9)
    one = oracle._one_pass(f, psi0, times)
    assert pairs[1] == one[1] == [1] * (samples - 1)
    assert all(np.array_equal(a, b) for a, b in zip(pairs[0], one[0]))


def test_a_pass_whose_series_gives_up_is_retried_with_more_substeps(monkeypatch):
    # at theta = 1.5 a series of twelve terms stops short of its bound,
    # and the pass ends in NaN; sixteen times the substeps bring theta
    # to 0.19
    monkeypatch.setattr(oracle, "_MAX_TAYLOR_TERMS", 12)
    geom = GEOMS[(2, 2)]
    psi0 = build_product_ket(geom, FlipConfig(0, geom.n_plaquettes))
    times = np.linspace(0.0, 1.0, 3)
    res = oracle.exact_evolve(geom, UNDRIVEN, DriveSpec.exponential(0.0, 0.0), psi0, times, tol=1e-9)
    assert res.substeps == (16, 16) and res.cf4_steps == 2 + 32
    assert res.error_estimate <= 1e-9
    ref = undriven_reference(geom, UNDRIVEN, psi0, times)
    assert max(float(np.max(np.abs(a - b))) for a, b in zip(res.kets, ref)) <= 1e-9
    # a pass that never converges ends in the step budget
    monkeypatch.setattr(oracle, "_MAX_TAYLOR_TERMS", 1)
    monkeypatch.setattr(oracle, "_MAX_TOTAL_STEPS", 1000)
    with pytest.raises(RuntimeError, match="refinement exhausted"):
        oracle.exact_evolve(geom, UNDRIVEN, DriveSpec.exponential(0.0, 0.0), psi0, times, tol=1e-9)
