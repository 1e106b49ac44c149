import io
import json
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kitaevsim import output, pauli
from kitaevsim.density import (
    ThermalEnsemble,
    _keyed_indices,
    assemble_state,
    density_matrix,
    ActiveState,
    embed_active_state,
    entropy_of_density,
    keyed_mixture,
    partial_trace_matrix,
    reduced_density_matrix,
    reduced_entropy,
    schmidt_weights,
    sublattice_entropy,
    thermal_weights,
)
from kitaevsim.hamiltonian import CouplingParams, energy_expectation
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import (
    ExcitedLabel,
    FlipConfig,
    build_product_ket,
    excite,
    label_key,
    signature_kernel,
)
from kitaevsim.perturbation import (
    CoefficientSeries,
    DriveSpec,
    connected_targets,
    evolve_coefficients,
)
from kitaevsim.phase import decompose

import reference

GEOM = build_lattice(2, 2)
EMPTY = FlipConfig(0, 4)


def scene(d=0.05, j=0.2, detuning=0.8, samples=25, t_max=6.0):
    probe = CouplingParams(jx=j, jy=j, jz=j, d=d)
    omega0 = energy_expectation(GEOM, probe, EMPTY, excite(EMPTY, 0)) - (
        energy_expectation(GEOM, probe, EMPTY)
    )
    omega = omega0 - detuning
    params = CouplingParams(jx=j, jy=j, jz=j, d=d, omega=omega)
    drive = DriveSpec.exponential(d, omega, plaquette=0)
    times = np.linspace(0.0, t_max, samples)
    targets = connected_targets(GEOM, params, EMPTY, 0)
    coeffs = evolve_coefficients(GEOM, params, drive, EMPTY, targets, times)
    return params, drive, times, targets, coeffs


class TestAssembleState:
    def test_zero_drive_keeps_all_weight_on_initial(self):
        *_, coeffs = scene(d=0.0)
        state = assemble_state(coeffs, 3.0, EMPTY)
        assert abs(abs(state.amplitudes[0]) - 1.0) < 1e-12
        assert np.all(state.amplitudes[1:] == 0)
        assert state.norm_factor == pytest.approx(1.0)

    def test_output_is_normalized(self):
        *_, coeffs = scene()
        for t in (0.25, 3.0, 6.0):
            state = assemble_state(coeffs, t, EMPTY)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_amplitude_ratios_are_normalization_free(self):
        params, drive, times, targets, coeffs = scene()
        t = times[13]
        state = assemble_state(coeffs, t, EMPTY)
        k = coeffs[0].index_of(t)
        raw_ratio = coeffs[0].values[k] * np.exp(-1j * coeffs[0].e_target * t)
        assert state.amplitudes[1] / state.amplitudes[0] == pytest.approx(
            raw_ratio / np.exp(-1j * coeffs[0].e_initial * t), abs=1e-12
        )

    def test_off_grid_time_rejected(self):
        *_, coeffs = scene()
        with pytest.raises(ValueError):
            assemble_state(coeffs, 0.1234, EMPTY)

    def test_empty_series_list_rejected(self):
        with pytest.raises(ValueError):
            assemble_state([], 0.0, EMPTY)


def active(amps) -> ActiveState:
    """An ActiveState holding ``amps`` over the labels s0, s1, ..."""
    amps = np.asarray(amps, dtype=complex)
    return ActiveState(tuple(f"s{k}" for k in range(len(amps))), np.zeros(len(amps)), amps, 1.0)


class TestDensityMatrix:
    def test_pure_basis_state(self):
        rho = density_matrix(active([1.0, 0.0]))
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])
        assert rho.labels == ("s0", "s1")

    def test_global_phase_invariance(self):
        amps = np.array([0.6, 0.8j], dtype=complex)
        a = density_matrix(active(amps))
        b = density_matrix(active(amps * np.exp(0.9j)))
        assert np.allclose(a.matrix, b.matrix, atol=1e-15)

    def test_diagonal_matches_moduli_and_ignores_phases(self):
        *_, coeffs = scene()
        t = 3.0
        state = assemble_state(coeffs, t, EMPTY)
        rho = density_matrix(state)
        phase = decompose(coeffs[0])
        k = coeffs[0].index_of(t)
        expected = (phase.modulus[k] / state.norm_factor) ** 2
        assert rho.matrix[1, 1].real == pytest.approx(expected, abs=1e-14)
        assert not rho.diagnostics(tol=1e-10)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            density_matrix(active([1.0, 1.0]))

    def test_rejects_a_bare_array(self):
        with pytest.raises(TypeError, match="ActiveState"):
            density_matrix(np.array([1.0, 0.0], dtype=complex))


class TestEntropy:
    def test_product_ket_has_zero_sublattice_entropy(self):
        ket = build_product_ket(GEOM, FlipConfig(0b0101, 4))
        _, s = reduced_entropy(GEOM, ket, "A")
        assert abs(s) < 1e-10

    def test_bell_pair(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
        rho = reduced_density_matrix(bell, [0])
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert entropy_of_density(rho) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_schmidt_duality_random_kets(self):
        rng = np.random.default_rng(99)
        for _ in range(4):
            psi = rng.normal(size=256) + 1j * rng.normal(size=256)
            psi /= np.linalg.norm(psi)
            rho_a, sa = reduced_entropy(GEOM, psi, "A")
            rho_b, sb = reduced_entropy(GEOM, psi, "B")
            assert abs(sa - sb) < 1e-9
            assert 0.0 <= sa <= 4 * math.log(2.0) + 1e-9
            assert abs(rho_a.trace - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho_a.matrix).min() > -1e-10

    def test_driven_state_is_product_across_sublattice_cut(self):
        # the drive flips third-position sites, all on sublattice A, so the
        # first-order evolved state keeps a shared B factor and S_A = 0
        _, _, times, targets, coeffs = scene()
        state = assemble_state(coeffs, times[17], EMPTY)
        psi = embed_active_state(GEOM, EMPTY, [c.target for c in coeffs], state)
        _, s = reduced_entropy(GEOM, psi, "A")
        assert abs(s) < 1e-10

    def test_cap_and_norm_guards(self):
        with pytest.raises(ValueError):
            reduced_entropy(GEOM, np.ones(256, dtype=complex), "A")
        geom_big = build_lattice(3, 3)
        with pytest.raises(ValueError):
            reduced_entropy(geom_big, np.zeros(2**18, dtype=complex), "A")

    def test_partial_trace_matrix_consistent_with_pure_path(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        rho_full = np.outer(psi, psi.conj())
        direct = reduced_density_matrix(psi, [0, 2])
        traced = partial_trace_matrix(rho_full, 4, [0, 2])
        assert np.allclose(direct, traced, atol=1e-12)


def random_series(rng, targets, times, e_initial):
    """Series of random complex amplitudes (zero at t = 0) and random energies."""
    out = []
    for target in targets:
        values = rng.normal(size=len(times)) + 1j * rng.normal(size=len(times))
        values[0] = 0.0
        out.append(CoefficientSeries(
            target=target, e_target=float(rng.normal()), e_initial=e_initial,
            times=times, values=values,
        ))
    return out


def dense_entropies(geom, initial, coeffs):
    """S_A at each sample time from the explicit 2**n ket."""
    out = []
    for t in coeffs[0].times:
        state = assemble_state(coeffs, float(t), initial)
        psi = embed_active_state(geom, initial, [c.target for c in coeffs], state)
        # coinciding labels add their amplitudes, so the ket's norm is not one
        _, s = reduced_entropy(geom, psi / np.linalg.norm(psi), "A")
        out.append(s)
    return np.array(out)


@settings(max_examples=60, deadline=None, database=None)
@given(
    shape=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sublattice_entropy_matches_the_dense_ket(shape, seed, data):
    geom = build_lattice(*shape)
    n = geom.n_plaquettes
    initial = FlipConfig(data.draw(st.integers(0, 2**n - 1)), n)
    # random bases and plaquettes: labels differ from the initial on both
    # sublattices, and repeated draws give coinciding kets
    labels = data.draw(st.lists(
        st.tuples(st.integers(0, 2**n - 1), st.integers(0, n - 1)), min_size=1, max_size=5,
    ))
    targets = [ExcitedLabel(FlipConfig(bits, n), p) for bits, p in labels]
    rng = np.random.default_rng(seed)
    coeffs = random_series(rng, targets, np.linspace(0.0, 3.0, 4), float(rng.normal()))

    closed = sublattice_entropy(geom, initial, coeffs)
    assert closed[0] == 0.0
    assert np.max(np.abs(closed - dense_entropies(geom, initial, coeffs))) < 1e-12


def test_sublattice_entropy_is_exactly_zero_when_only_a_sites_differ():
    # every excite(initial, p) flips only plaquette p's third site, on A
    geom = build_lattice(2, 3)
    initial = FlipConfig(0b101101, 6)
    targets = [excite(initial, p) for p in range(6)]
    assert all(geom.sublattice[geom.position3_site(p)] == "A" for p in range(6))
    rng = np.random.default_rng(4)
    coeffs = random_series(rng, targets, np.linspace(0.0, 2.0, 5), 0.3)
    closed = sublattice_entropy(geom, initial, coeffs)
    assert closed.tolist() == [0.0] * 5
    assert np.max(dense_entropies(geom, initial, coeffs)) < 1e-12


def test_sublattice_entropy_of_a_two_label_schmidt_pair():
    # a base flipped on one plaquette differs on three A and three B sites,
    # so |0> + c|m> has Schmidt weights 1/(1 + |c|^2) and |c|^2/(1 + |c|^2)
    geom = build_lattice(2, 2)
    initial = FlipConfig(0, 4)
    times = np.array([0.0, 1.0])
    c = 0.3 - 0.4j
    series = CoefficientSeries(
        target=excite(FlipConfig(0b0010, 4), 1), e_target=0.7, e_initial=-0.2,
        times=times, values=np.array([0.0, c]),
    )
    p = abs(c) ** 2 / (1.0 + abs(c) ** 2)
    expected = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
    s_a = sublattice_entropy(geom, initial, [series])
    assert s_a[0] == 0.0
    assert s_a[1] == pytest.approx(expected, abs=1e-14)


class TestThermal:
    def test_boltzmann_point(self):
        w = thermal_weights([0.0, 1.0], 1.0)
        assert w[0] == pytest.approx(0.731059, abs=1e-6)
        assert w[1] == pytest.approx(0.268941, abs=1e-6)

    def test_equal_energies_are_uniform(self):
        w = thermal_weights([2.0, 2.0, 2.0], 0.7)
        assert np.allclose(w, 1.0 / 3.0, atol=1e-15)

    def test_limits(self):
        assert np.allclose(thermal_weights([0.0, 3.0], math.inf), 0.5)
        assert np.allclose(thermal_weights([1.0, 1.0, 4.0], 0.0), [0.5, 0.5, 0.0])

    def test_weights_invariant_under_energy_shift(self):
        e = np.array([0.3, 1.7, -2.2])
        a = thermal_weights(e, 0.9)
        b = thermal_weights(e + 123.4, 0.9)
        assert np.allclose(a, b, atol=1e-12)

    def test_overflow_safety(self):
        w = thermal_weights([0.0, 5000.0], 1e-2)
        assert np.allclose(w, [1.0, 0.0], atol=1e-300)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_mixture_density(self):
        up = np.array([1.0, 0.0], dtype=complex)
        down = np.array([0.0, 1.0], dtype=complex)
        rho = ThermalEnsemble([up, down], thermal_weights([0.0, 1.0], 1.0)).density()
        assert not rho.diagnostics(tol=1e-12)
        assert rho.purity() < 1.0
        assert rho.matrix[0, 0].real == pytest.approx(0.731059, abs=1e-6)

    def test_pure_density_matrices_have_unit_purity(self):
        rho = ThermalEnsemble([np.array([1.0, 0.0], dtype=complex)], np.ones(1)).density()
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_kt_zero_with_degenerate_minimum(self):
        assert np.allclose(thermal_weights([1.0, 1.0, 2.0], 0.0), [0.5, 0.5, 0.0])

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError, match="one or more"):
            ThermalEnsemble([], np.ones(0))
        with pytest.raises(ValueError, match="empty"):
            thermal_weights([], 1.0)
        with pytest.raises(ValueError):
            thermal_weights([0.0], -1.0)

    def test_states_over_two_bases_rejected(self):
        with pytest.raises(ValueError, match="all over one basis"):
            ThermalEnsemble([np.ones(2) / math.sqrt(2.0), np.ones(4) / 2.0], np.full(2, 0.5))

    def test_density_over_budget_raises_before_allocating(self):
        # nine 2x4-torus kets: the 65536x65536 mixture would need 64 GiB
        dim = 2**16
        kets = []
        for q in range(9):
            psi = np.zeros(dim, dtype=complex)
            psi[q] = 1.0
            kets.append(psi)
        ens = ThermalEnsemble(kets, thermal_weights(np.arange(9.0), 1.0))
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="68719476736 bytes"):
                ens.density()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def written_entries(entries) -> str:
    """The JSON text output.write_json streams for ``entries``."""
    fh = io.StringIO()
    output._write_array(fh, entries, "")
    return fh.getvalue()


def test_density_blocks_sum_the_same_products_as_whole_projectors(monkeypatch):
    # JSON blocks of 83 entries, longer than the 16-entry matrix rows the
    # payload gives one at a time
    rng = np.random.default_rng(3)
    kets = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    ens = ThermalEnsemble(list(kets), thermal_weights(np.arange(3.0), 0.7))
    monkeypatch.setattr(output, "JSON_BLOCK_ROWS", 83)
    expected = np.zeros((16, 16), dtype=complex)
    for p, psi in zip(ens.weights, ens.states):
        expected += np.multiply.outer(psi, psi.conj()) * p
    # repr texts are equal only for bit-identical floats
    assert written_entries(ens.density().to_payload()["entries"]) == json.dumps(
        expected.reshape(-1).view(float).reshape(-1, 2).tolist(), indent=2
    )


def test_density_payload_writes_in_less_than_the_dense_matrix():
    dim = 1024  # a 16 MiB matrix
    rng = np.random.default_rng(4)
    kets = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    ens = ThermalEnsemble(list(kets), thermal_weights(np.arange(3.0), 1.0))
    tracemalloc.start()
    try:
        rho = ens.density()
        output.write_json(Path(os.devnull), {"nx": 2}, {"density": rho.to_payload()})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * dim * dim, f"peak {peak} bytes for a {16 * dim * dim}-byte matrix"
    assert abs(rho.trace - 1.0) < 1e-12


def test_a_sparse_mixture_payload_writes_its_support_block():
    # three members each nonzero on 40 of 1024 states: the payload lists
    # their union and its |S| x |S| entries
    dim = 1024
    rng = np.random.default_rng(4)
    kets = np.zeros((3, dim), dtype=complex)
    for psi in kets:
        at = rng.choice(dim, 40, replace=False)
        psi[at] = rng.normal(size=40) + 1j * rng.normal(size=40)
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    support = np.flatnonzero(kets.any(axis=0))
    payload = ThermalEnsemble(list(kets), thermal_weights(np.arange(3.0), 1.0)).density().to_payload()
    assert payload["basis"] == [f"hilbert:{k}" for k in support]
    assert sum(map(len, payload["entries"])) == len(support) ** 2


def signed_zero_kets(rng, k: int, dim: int) -> np.ndarray:
    """k random complex kets of length dim, about half of whose real and
    imaginary parts are +0.0 or -0.0."""
    parts = rng.normal(size=(k, dim, 2))
    zero = rng.random(size=parts.shape) < 0.5
    parts[zero] = np.copysign(0.0, rng.normal(size=int(zero.sum())))
    return parts.view(complex)[..., 0]


def rebuilt(payload: dict, labels) -> tuple[np.ndarray, list[int]]:
    """The dim x dim matrix a payload gives over the basis ``labels``, zero
    outside its support, and the support's indices into ``labels``."""
    index = {label: k for k, label in enumerate(labels)}
    at = [index[label] for label in payload["basis"]]
    entries = np.concatenate([np.empty((0, 2)), *payload["entries"]]).reshape(-1).view(complex)
    dense = np.zeros((payload["dim"], payload["dim"]), dtype=complex)
    dense[np.ix_(at, at)] = entries.reshape(len(at), len(at))
    return dense, at


def test_support_entries_keep_the_bits_of_whole_rows():
    # a mixture's psi_0 conj(psi_0) formed in a row of one entry or in the
    # basis's row of two can differ in its last bit (numpy's vector loop
    # may fuse a multiply and an add); the payload's entry is the whole
    # matrix's
    psi = np.array([0.18905338 - 0.52274844j, 0.0])
    psi /= np.linalg.norm(psi)
    rho = ThermalEnsemble([psi], np.ones(1)).density()
    dense = reference.dense_mixture(np.ones(1), [psi])
    (block,) = rho.to_payload()["entries"]
    assert block.tobytes() == dense[:1, :1].tobytes()


@settings(max_examples=25, deadline=None, database=None)
@given(
    dim=st.integers(1, 256),
    seed=st.integers(0, 2**32 - 1),
    weights=st.none() | st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                                 min_size=1, max_size=4),
    data=st.data(),
)
def test_streamed_entries_are_the_dense_entries_bit_for_bit(dim, seed, weights, data):
    # weights None draws a pure state; JSON blocks split matrix rows
    rng = np.random.default_rng(seed)
    block = data.draw(st.sampled_from([n for n in (1, 5, dim - 1, dim + 3) if n > 0]))
    if weights is None:
        amps = signed_zero_kets(rng, 1, dim)[0]
        if not amps.any():
            amps[0] = 1.0
        amps /= np.linalg.norm(amps)
        rho = density_matrix(active(amps))
        labels = rho.labels
        kets = amps[None, :]
        dense = np.outer(amps, amps.conj())
    else:
        kets = signed_zero_kets(rng, len(weights), dim)
        rho = ThermalEnsemble(list(kets), np.array(weights)).density()
        labels = [f"hilbert:{k}" for k in range(dim)]
        dense = reference.dense_mixture(np.array(weights), kets)
    payload = rho.to_payload()
    assert payload["dim"] == dim
    got, at = rebuilt(payload, labels)
    # the support: every basis state where some ket is nonzero, in order
    assert at == np.flatnonzero((kets != 0).any(axis=0)).tolist()
    support = np.ix_(at, at)
    # bit for bit over the support, -0.0 against 0.0 too, and 0 elsewhere
    assert got[support].tobytes() == dense[support].tobytes()
    outside = dense.copy()
    outside[support] = 0.0
    assert not outside.any()
    # repr texts are equal only for bit-identical floats
    with mock.patch.object(output, "JSON_BLOCK_ROWS", block):
        written = written_entries(rho.to_payload()["entries"])
    assert written == json.dumps(
        dense[support].reshape(-1).view(float).reshape(-1, 2).tolist(), indent=2)


@settings(max_examples=50, deadline=None, database=None)
@given(
    n_sites=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=6),
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=6, max_size=6),
    data=st.data(),
)
def test_gram_and_reduced_match_the_dense_mixture(n_sites, seed, picks, weights, data):
    # members drawn from a pool of three kets, so duplicates occur
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(3, 2**n_sites)) + 1j * rng.normal(size=(3, 2**n_sites))
    pool /= np.linalg.norm(pool, axis=1)[:, None]
    w = np.array(weights[: len(picks)])
    assume(w.sum() > 0.0)
    ens = ThermalEnsemble(states=[pool[k] for k in picks], weights=w / w.sum())
    keep = data.draw(st.permutations(range(n_sites)))[: data.draw(st.integers(1, n_sites))]

    gram, rho = reference.gram(ens), ens.density()
    p = ens.weights
    overlaps = [[np.vdot(a, b) for b in ens.states] for a in ens.states]
    assert np.max(np.abs(gram.matrix - np.sqrt(np.outer(p, p)) * overlaps)) < 1e-12
    assert abs(gram.trace - rho.trace) < 1e-12
    assert abs(gram.purity() - rho.purity()) < 1e-12
    assert abs(entropy_of_density(gram.matrix) - entropy_of_density(rho.matrix)) < 1e-12
    dense_a = partial_trace_matrix(rho.matrix, n_sites, keep)
    assert np.max(np.abs(reference.reduced(ens, keep) - dense_a)) < 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 6),
    n_cols=st.integers(1, 6),
    n_entries=st.integers(1, 12),
)
def test_schmidt_weights_match_one_dense_svd(seed, n_rows, n_cols, n_entries):
    # a sparse pattern with repeated entries and, mostly, several blocks;
    # the leading axis gives three matrices over the one pattern
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, n_entries)
    cols = rng.integers(0, n_cols, n_entries)
    values = rng.normal(size=(3, n_entries)) + 1j * rng.normal(size=(3, n_entries))
    dense = np.zeros((3, n_rows, n_cols), dtype=complex)
    np.add.at(dense, (slice(None), rows, cols), values)

    blocked = -np.sort(-schmidt_weights(rows, cols, values), axis=-1)
    whole = -np.sort(-np.linalg.svd(dense, compute_uv=False) ** 2, axis=-1)
    # either side may add zero weights for rows or columns it does not share
    k = min(blocked.shape[-1], whole.shape[-1])
    assert np.max(np.abs(blocked[:, :k] - whole[:, :k])) < 1e-12
    assert np.max(np.abs(blocked[:, k:]), initial=0.0) < 1e-12
    assert np.max(np.abs(whole[:, k:]), initial=0.0) < 1e-12


@st.composite
def block_patterns(draw):
    """A pattern of blocks of drawn shapes, 1 x m, m x 1 and larger: each
    block's first row meets every column and its first column every row,
    with extra and repeated entries; row and column ids are shuffled
    across blocks, and so are the entries."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 4)),
                           min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = [], []
    n_rows = n_cols = 0
    for r, c, extra in shapes:
        pairs = [(i, 0) for i in range(r)] + [(0, j) for j in range(1, c)]
        pairs += [(int(rng.integers(r)), int(rng.integers(c))) for _ in range(extra)]
        rows += [n_rows + i for i, _ in pairs]
        cols += [n_cols + j for _, j in pairs]
        n_rows, n_cols = n_rows + r, n_cols + c
    order = rng.permutation(len(rows))
    rows = rng.permutation(n_rows)[np.array(rows)][order]
    cols = rng.permutation(n_cols)[np.array(cols)][order]
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 4)]))
    values = rng.normal(size=(*lead, len(rows))) + 1j * rng.normal(size=(*lead, len(rows)))
    return rows, cols, values


@settings(max_examples=150, deadline=None, database=None)
@given(pattern=block_patterns())
def test_stacked_schmidt_weights_are_the_per_block_loop_bit_for_bit(pattern):
    rows, cols, values = pattern
    stacked = schmidt_weights(rows, cols, values)
    loop = reference.loop_schmidt_weights(rows, cols, values)
    assert stacked.shape == loop.shape
    assert stacked.tobytes() == loop.tobytes()


def all_plus_keys(geom, members):
    """Each member's label keys against the all-plus configuration, one
    reference for all members; ``members`` pairs labels with amplitudes."""
    reference_config = FlipConfig(0, geom.n_plaquettes)
    return [[label_key(geom, reference_config, label) for label in labels] for labels, _ in members]


def label_mixture(geom, members, weights):
    """keyed_mixture of members given as (labels, amplitudes)."""
    return keyed_mixture(geom, all_plus_keys(geom, members), [amps for _, amps in members], weights)


def reference_mixture(geom, members, weights):
    """trace, purity, mixture_entropy and sublattice_entropy of the mixture
    of the members' embed_active_state kets, from reference.gram and
    reference.reduced."""
    kets = []
    for labels, amps in members:
        state = ActiveState(tuple(map(str, labels)), np.zeros(len(labels)), amps, 1.0)
        kets.append(embed_active_state(geom, labels[0], labels[1:], state))
    ens = ThermalEnsemble(states=kets, weights=weights)
    rho = reference.gram(ens)
    rho_a = reference.reduced(ens, [k for k in range(geom.n_sites) if geom.sublattice[k] == "A"])
    return {
        "trace": rho.trace,
        "purity": rho.purity(),
        "mixture_entropy": entropy_of_density(rho.matrix),
        "sublattice_entropy": entropy_of_density(rho_a),
    }


def assert_mixtures_agree(keyed, dense):
    assert list(keyed) == list(dense)
    for name in dense:
        assert abs(keyed[name] - dense[name]) < 1e-12, name


@settings(max_examples=60, deadline=None, database=None)
@given(
    shape=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_label_mixture_matches_the_dense_member_kets(shape, seed, data):
    geom = build_lattice(*shape)
    n = geom.n_plaquettes
    # configurations from a small pool, so members repeat; targets on random
    # bases and plaquettes, so kets differ on both sublattices and coincide
    # within and across members
    pool = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=3))
    drawn = data.draw(st.lists(
        st.tuples(
            st.sampled_from(pool),
            st.lists(st.tuples(st.sampled_from(pool), st.integers(0, n - 1)), max_size=3),
        ),
        min_size=1, max_size=6,
    ))
    rng = np.random.default_rng(seed)
    members = []
    for bits, targets in drawn:
        labels = [FlipConfig(bits, n)] + [ExcitedLabel(FlipConfig(b, n), p) for b, p in targets]
        amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        members.append((labels, amps / np.linalg.norm(amps)))
    w = rng.uniform(size=len(members)) * (rng.uniform(size=len(members)) > 0.2)
    assume(w.sum() > 0.0)
    w /= w.sum()
    assert_mixtures_agree(label_mixture(geom, members, w), reference_mixture(geom, members, w))


def evolved_members(geom, configs):
    """Each configuration's labels and first-order amplitudes at t = 2, and
    the Boltzmann weights of the configurations' energies at kT = 0.7."""
    params = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=0.05, omega=0.3)
    drive = DriveSpec.exponential(0.05, 0.3, plaquette=0)
    times = np.linspace(0.0, 2.0, 5)
    members, energies = [], []
    for config in configs:
        coeffs = evolve_coefficients(
            geom, params, drive, config, connected_targets(geom, params, config, 0), times
        )
        state = assemble_state(coeffs, 2.0, config)
        members.append(([config] + [c.target for c in coeffs], state.amplitudes))
        energies.append(energy_expectation(geom, params, config))
    return members, thermal_weights(energies, 0.7)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)], ids=["2x2", "2x3"])
def test_label_mixture_of_every_evolved_configuration(shape):
    geom = build_lattice(*shape)
    n = geom.n_plaquettes
    members, w = evolved_members(geom, [FlipConfig(bits, n) for bits in range(1 << n)])
    assert_mixtures_agree(label_mixture(geom, members, w), reference_mixture(geom, members, w))


def test_label_mixture_of_3x3_flip_kernel_twins():
    # the twins of a configuration name its ket, so they evolve to one state
    geom = build_lattice(3, 3)
    base = 0b000010110
    twins = [FlipConfig(base, 9)] + [FlipConfig(base ^ c.bits, 9) for c in signature_kernel(geom)]
    members, w = evolved_members(geom, twins + [FlipConfig(0b1, 9)])
    # 3x3 has 18 sites; its 2**18 member kets are built here under a raised cap
    with mock.patch.object(pauli, "HILBERT_CAP_SITES", geom.n_sites):
        dense = reference_mixture(geom, members, w)
    assert_mixtures_agree(label_mixture(geom, members, w), dense)

    pure = label_mixture(geom, members[:3], w[:3] / w[:3].sum())
    assert pure["purity"] == pytest.approx(1.0, abs=1e-12)
    assert pure["mixture_entropy"] == pytest.approx(0.0, abs=1e-12)


def test_schmidt_weights_of_3x3_flip_kernel_twins_are_the_per_block_loop():
    # twins share their keys, so their rows meet in one block of the
    # member x key matrix and of the A x (member, B) matrix
    geom = build_lattice(3, 3)
    base = 0b000010110
    twins = [FlipConfig(base, 9)] + [FlipConfig(base ^ c.bits, 9) for c in signature_kernel(geom)]
    members, w = evolved_members(geom, twins + [FlipConfig(0b1, 9)])
    member, key_col, a_row, kb_col = _keyed_indices(geom, all_plus_keys(geom, members))
    values = np.concatenate([math.sqrt(p) * amps for (_, amps), p in zip(members, w)])
    for rows, cols in [(member, key_col), (a_row, kb_col)]:
        assert schmidt_weights(rows, cols, values).tobytes() == \
            reference.loop_schmidt_weights(rows, cols, values).tobytes()
