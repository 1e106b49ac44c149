"""Each drive's one first-order target, found from its image.

A Pauli string maps a product of Pauli eigenkets to exactly one such
product, so the drive on plaquette q connects the initial configuration to
at most one excitation, whatever the configuration.  ``connected_targets``
finds it from the drive string alone; the per-candidate scan it replaced
lives on in ``reference.scan_connected_targets`` and must agree.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim import hamiltonian, manifold
from kitaevsim.hamiltonian import (
    CouplingParams,
    drive_image_sites,
    energy_block_rows,
    energy_expectations,
    perturbation_element,
)
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import (
    FlipConfig,
    excite,
    flip_signature,
    label_key,
    signature_difference,
    signature_kernel,
)
from kitaevsim.perturbation import DriveSpec, connected_targets, evolve_coefficients
from reference import loop_energy, scan_connected_targets

LABEL_GEOMS = {(nx, ny): build_lattice(nx, ny) for nx in range(2, 7) for ny in range(2, 7)}
HILBERT_SHAPES = ((2, 2), (2, 3), (3, 2))

couplings = st.floats(-2.0, 2.0)
# d = 0 connects nothing at first order, but the targets are the same
amplitudes = st.one_of(st.just(0.0), st.floats(0.001, 2.0))


def _check_every_driven_plaquette(geom, params, data, engine):
    n = geom.n_plaquettes
    initial = FlipConfig(data.draw(st.integers(0, 2**n - 1), label="initial"), n)
    for q in range(n):
        found = connected_targets(geom, params, initial, q)
        assert found == scan_connected_targets(geom, initial, q, engine), (initial, q)


@settings(max_examples=40, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(LABEL_GEOMS)),
    jx=couplings, jy=couplings, jz=couplings, d=amplitudes, data=st.data(),
)
def test_image_targets_match_the_scan_label_engine(shape, jx, jy, jz, d, data):
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=d)
    _check_every_driven_plaquette(LABEL_GEOMS[shape], params, data, "label")


@settings(max_examples=15, deadline=None, database=None)
@given(
    shape=st.sampled_from(HILBERT_SHAPES),
    jx=couplings, jy=couplings, jz=couplings, d=amplitudes, data=st.data(),
)
def test_image_targets_match_the_scan_hilbert_engine(shape, jx, jy, jz, d, data):
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=d)
    _check_every_driven_plaquette(LABEL_GEOMS[shape], params, data, "hilbert")


@settings(max_examples=40, deadline=None, database=None)
@given(shape=st.sampled_from(sorted(LABEL_GEOMS)), data=st.data())
def test_signature_difference_matches_the_signatures(shape, data):
    geom = LABEL_GEOMS[shape]
    n = geom.n_plaquettes
    a, b = (FlipConfig(data.draw(st.integers(0, 2**n - 1)), n) for _ in range(2))
    differ = np.flatnonzero(flip_signature(geom, a) != flip_signature(geom, b))
    assert signature_difference(geom, a, b) == set(differ.tolist())


def test_image_on_a_base_with_the_same_signature():
    # on 3x3 a kernel configuration flips every site twice, so a target
    # built on it is the same ket as one built on the empty configuration
    geom = build_lattice(3, 3)
    n = geom.n_plaquettes
    ground = FlipConfig(0, n)
    twin = signature_kernel(geom)[0]
    assert twin.bits != 0 and not signature_difference(geom, ground, twin)
    params = CouplingParams(1.0, 0.8, 1.2, d=0.3)
    on_ground = perturbation_element(geom, ground, excite(ground, 0), params, 0)
    on_twin = perturbation_element(geom, ground, excite(twin, 0), params, 0)
    assert on_ground != 0
    assert on_twin == on_ground


# --- keyed energies in blocked array passes ---------------------------------

ENERGY_GEOMS = {(nx, ny): build_lattice(nx, ny) for nx in range(2, 9, 2) for ny in (2, 3, 5)}
ENERGY_GEOMS[(3, 2)] = build_lattice(3, 2)


def _negated_signature_energy(geom, params, reference, key):
    signs = flip_signature(geom, reference)
    signs[list(key)] *= -1
    return loop_energy(geom, params, signs)


@settings(max_examples=40, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(ENERGY_GEOMS)),
    jx=couplings, jy=couplings, jz=couplings,
    rows_per_block=st.integers(2, 9),
    full_blocks=st.integers(1, 3),
    data=st.data(),
)
def test_batched_energies_match_the_loop_bit_for_bit(
    shape, jx, jy, jz, rows_per_block, full_blocks, data
):
    geom = ENERGY_GEOMS[shape]
    n = geom.n_plaquettes
    params = CouplingParams(jx=jx, jy=jy, jz=jz)
    reference = FlipConfig(data.draw(st.integers(0, 2**n - 1), label="reference"), n)
    configs = [
        FlipConfig(data.draw(st.integers(0, 2**n - 1), label="config"), n) for _ in range(2)
    ]
    # each config's key moved by the drive on every plaquette: the images
    # that flip three to six sites
    keys = [
        label_key(geom, reference, config) ^ drive_image_sites(geom, q)
        for config in configs for q in range(n)
    ]
    # then random labels and site sets up to at least two blocks, the last
    # one partly filled
    count = rows_per_block * (full_blocks + len(keys) // rows_per_block) + data.draw(
        st.integers(1, rows_per_block - 1)
    )
    labels = st.one_of(
        st.sampled_from(configs),
        st.builds(excite, st.sampled_from(configs), st.integers(0, n - 1)),
    )
    sites = st.frozensets(st.integers(0, geom.n_sites - 1), max_size=8)
    keys += [
        data.draw(st.one_of(labels.map(lambda label: label_key(geom, reference, label)), sites))
        for _ in range(count - len(keys))
    ]

    row_bytes = 8 * (len(geom.labelled_bonds[0]) + 1)
    with mock.patch.object(hamiltonian, "ENERGY_BLOCK_BYTES", row_bytes * rows_per_block):
        assert energy_block_rows(geom) == rows_per_block
        batched = energy_expectations(geom, params, reference, keys)
    expected = [_negated_signature_energy(geom, params, reference, key) for key in keys]
    assert [float(e).hex() for e in batched] == [e.hex() for e in expected]


def test_keyed_energies_of_every_excitation_stay_small_on_90x90():
    # one row of terms per key, but no row of n_sites signs
    geom = build_lattice(90, 90)
    n = geom.n_plaquettes
    config = FlipConfig((1 << n) // 3, n)
    keys = [frozenset()] + [label_key(geom, config, excite(config, p)) for p in range(n)]
    params = CouplingParams(1.0, 0.8, 1.2)
    tracemalloc.start()
    try:
        energies = energy_expectations(geom, params, config, keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(energies) == 8101
    assert peak < 8 * 2**20
    for k in (0, 1, 4050, 8100):
        assert energies[k] == _negated_signature_energy(geom, params, config, keys[k])


def test_energy_blocks_stay_within_their_byte_budget():
    for shape in ((2, 2), (24, 24), (256, 256)):
        geom = build_lattice(*shape)
        rows = energy_block_rows(geom)
        row_bytes = 8 * (len(geom.labelled_bonds[0]) + 1)
        assert rows * row_bytes <= hamiltonian.ENERGY_BLOCK_BYTES < (rows + 1) * row_bytes


# --- no per-plaquette work ---------------------------------------------------


def _signature_calls(shape, monkeypatch):
    """flip_signature calls made by connected_targets plus evolve_coefficients
    over the connected target, and by evolve_coefficients over an
    excitation of every plaquette."""
    calls = []
    original = manifold.flip_signature

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (manifold, hamiltonian):
        monkeypatch.setattr(module, "flip_signature", counted)
    geom = build_lattice(*shape)
    n = geom.n_plaquettes
    params = CouplingParams(1.0, 0.8, 1.2, d=0.01, omega=0.8)
    drive = DriveSpec.exponential(0.01, 0.8, plaquette=0)
    initial = FlipConfig((1 << n) // 3, n)
    times = np.linspace(0.0, 1.0, 5)

    connected = connected_targets(geom, params, initial, 0)
    evolve_coefficients(geom, params, drive, initial, connected, times)
    counts = [len(calls)]
    calls.clear()
    everywhere = [excite(initial, j) for j in range(n)]
    series = evolve_coefficients(geom, params, drive, initial, everywhere, times)
    assert sum(np.any(s.values != 0) for s in series) == 1
    return counts + [len(calls)]


def test_signature_count_does_not_grow_with_the_torus(monkeypatch):
    small = _signature_calls((4, 4), monkeypatch)
    large = _signature_calls((24, 24), monkeypatch)
    assert small == large
