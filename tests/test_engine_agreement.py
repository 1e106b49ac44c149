"""The label engine against expectations on explicit kets beyond the 2x2 torus.

``reference.hilbert_energy`` and ``reference.hilbert_element`` evaluate
energies and drive matrix elements on explicit 2^n kets; the label engine
must give the same numbers from the flip signatures alone.  Its array
kernels are also held to the per-site loops they replaced, bit for bit,
including on 3x3, which is beyond the Hilbert cap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim.hamiltonian import CouplingParams, energy_expectation, perturbation_element
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, excite, flip_signature
from kitaevsim.pauli import HILBERT_CAP_SITES
from reference import (
    hilbert_element,
    hilbert_energy,
    loop_element,
    loop_energy,
    loop_signature,
)

GEOMS = {shape: build_lattice(*shape) for shape in ((2, 3), (3, 2))}

couplings = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
amplitudes = st.one_of(st.just(0.0), st.floats(0.001, 2.0))


@settings(max_examples=60, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    d=amplitudes,
    same_base=st.booleans(),
    data=st.data(),
)
def test_label_engine_matches_hilbert_engine(shape, jx, jy, jz, d, same_base, data):
    geom = GEOMS[shape]
    n = geom.n_plaquettes
    plaquettes = st.integers(0, n - 1)
    ground = FlipConfig(data.draw(st.integers(0, 2**n - 1), label="ground"), n)
    # a target built on the ground configuration, as connected_targets makes
    # them, or on an unrelated one
    base = ground if same_base else FlipConfig(
        data.draw(st.integers(0, 2**n - 1), label="base"), n
    )
    # under the ownership rule only a drive on plaquette 0 connects a target,
    # the excitation of that plaquette; the draws lean toward that case
    driven = data.draw(st.one_of(st.just(0), plaquettes), label="driven")
    on_driven = data.draw(st.booleans(), label="on driven")
    excited = driven if on_driven else data.draw(plaquettes, label="excited")
    target = excite(base, excited)
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=d)

    for config, excitation in ((ground, None), (base, target)):
        e_label = energy_expectation(geom, params, config, excitation)
        e_hilbert = hilbert_energy(geom, params, config, excitation)
        assert abs(e_label - e_hilbert) <= 1e-12

    m_label = perturbation_element(geom, ground, target, params, drive_plaquette=driven)
    m_hilbert = hilbert_element(geom, ground, target, params, drive_plaquette=driven)
    assert abs(m_label - m_hilbert) <= 1e-12


# --- the array kernels against the per-site loops they replaced -------------

# 12x4 has twelve labelled bonds, enough for np.sum's unrolled pairwise
# order to differ from a left-to-right sum
LOOP_GEOMS = {
    shape: build_lattice(*shape) for shape in ((2, 2), (2, 3), (3, 2), (3, 3), (12, 4))
}


@settings(max_examples=80, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(LOOP_GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    d=amplitudes,
    data=st.data(),
)
def test_array_kernels_match_loops_and_hilbert_engine(shape, jx, jy, jz, d, data):
    geom = LOOP_GEOMS[shape]
    n = geom.n_plaquettes
    plaquettes = st.integers(0, n - 1)
    ground = FlipConfig(data.draw(st.integers(0, 2**n - 1), label="ground"), n)
    base = data.draw(
        st.one_of(st.just(ground), st.builds(lambda b: FlipConfig(b, n), st.integers(0, 2**n - 1))),
        label="base",
    )
    target = excite(base, data.draw(plaquettes, label="excited"))
    driven = data.draw(st.one_of(st.just(0), plaquettes), label="driven")
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=d)
    on_cap = geom.n_sites <= HILBERT_CAP_SITES

    signs_g = flip_signature(geom, ground)
    signs_t = flip_signature(geom, base, target)
    assert np.array_equal(signs_g, loop_signature(geom, ground))
    assert np.array_equal(signs_t, loop_signature(geom, base, target))
    assert signs_g.dtype == np.int8

    for config, excitation, signs in ((ground, None, signs_g), (base, target, signs_t)):
        e = energy_expectation(geom, params, config, excitation)
        # bit-identical: the loop's summation order is kept
        assert e == loop_energy(geom, params, signs)
        if on_cap:
            assert abs(e - hilbert_energy(geom, params, config, excitation)) <= 1e-12

    m = perturbation_element(geom, ground, target, params, drive_plaquette=driven)
    assert m == loop_element(geom, signs_g, signs_t, driven, d)
    if on_cap:
        m_hilbert = hilbert_element(geom, ground, target, params, drive_plaquette=driven)
        assert abs(m - m_hilbert) <= 1e-12


@pytest.mark.parametrize("jz,bits", [(0.1, 0x0), (0.7, 0x1), (1.2, 0x1)])
def test_energy_keeps_the_loops_summation_order(jz, bits):
    # cases where np.sum's pairwise order rounds differently from the loop
    geom = LOOP_GEOMS[(12, 4)]
    config = FlipConfig(bits, geom.n_plaquettes)
    params = CouplingParams(jx=1.0, jy=1.0, jz=jz)
    signs = flip_signature(geom, config)
    assert energy_expectation(geom, params, config) == loop_energy(geom, params, signs)


def test_difference_off_the_drive_string_gives_zero():
    # the target matches the drive image of the ground state on the six
    # string sites, and differs from it on a plaquette that shares none
    geom = LOOP_GEOMS[(12, 4)]
    n = geom.n_plaquettes
    ground = FlipConfig(0, n)
    far = next(p for p in range(n) if not set(geom.plaquettes[p]) & set(geom.plaquettes[0]))
    params = CouplingParams(jx=1.0, jy=1.0, jz=1.0, d=1.0)
    image = excite(ground, 0)
    assert perturbation_element(geom, ground, image, params, drive_plaquette=0) != 0

    target = excite(FlipConfig(1 << far, n), 0)
    signs_g = flip_signature(geom, ground)
    signs_t = flip_signature(geom, target.base, target)
    assert loop_element(geom, signs_g, signs_t, 0, 1.0) == 0
    assert perturbation_element(geom, ground, target, params, drive_plaquette=0) == 0
