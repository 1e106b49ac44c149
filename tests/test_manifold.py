import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim import pauli
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import (
    signature_kernel,
    ExcitedLabel,
    FlipConfig,
    build_product_ket,
    enumerate_weight_class,
    excite,
    flip_signature,
    label_key,
)
from kitaevsim.pauli import product_ket


def brute_force_signs(geom, config, excitation=None):
    """Independent oracle: toggle each flipped plaquette's six sites."""
    signs = [1] * geom.n_sites
    for p, sites in enumerate(geom.plaquettes):
        if (config.bits >> p) & 1:
            for s in sites:
                signs[s] *= -1
    if excitation is not None:
        signs[geom.plaquettes[excitation.flipped_plaquette][2]] *= -1
    return signs


class TestEnumeration:
    def test_weight_class_sizes(self):
        assert len(enumerate_weight_class(4, 2)) == 6
        for n in (4, 9):
            for k in range(n + 1):
                assert len(enumerate_weight_class(n, k)) == math.comb(n, k)

    def test_zero_weight_is_single_empty_config(self):
        configs = enumerate_weight_class(7, 0)
        assert configs == [FlipConfig(0, 7)]

    def test_total_is_two_to_the_n(self):
        total = sum(len(enumerate_weight_class(4, k)) for k in range(5))
        assert total == 16

    def test_deterministic_lexicographic_order(self):
        configs = enumerate_weight_class(4, 2)
        assert [c.bits for c in configs] == [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100]
        assert configs == enumerate_weight_class(4, 2)

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_weight_class(4, 5)
        with pytest.raises(ValueError):
            enumerate_weight_class(4, -1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlipConfig(16, 4)
        assert FlipConfig(0b1011, 4).hex == "0xb"


class TestFlipSignature:
    def setup_method(self):
        self.geom = build_lattice(2, 2)

    def test_empty_config_all_plus(self):
        signs = flip_signature(self.geom, FlipConfig(0, 4))
        assert np.all(signs == 1)

    def test_single_plaquette_flips_its_six_sites(self):
        signs = flip_signature(self.geom, FlipConfig(1, 4))
        flipped = {s for s in range(8) if signs[s] == -1}
        assert flipped == set(self.geom.plaquettes[0])

    def test_matches_brute_force_for_all_configs(self):
        for geom in (self.geom, build_lattice(3, 3)):
            n = geom.n_plaquettes
            step = 1 if n <= 4 else 13
            for bits in range(0, 1 << n, step):
                config = FlipConfig(bits, n)
                expected = brute_force_signs(geom, config)
                assert list(flip_signature(geom, config)) == expected

    def test_adjacent_pair_shares_even_overlap(self):
        # two plaquettes sharing bonds: shared sites flip twice, back to +1
        geom = build_lattice(3, 3)
        p, q = 0, 1
        shared = set(geom.plaquettes[p]) & set(geom.plaquettes[q])
        assert shared and len(shared) % 2 == 0
        config = FlipConfig((1 << p) | (1 << q), 9)
        signs = flip_signature(geom, config)
        for s in shared:
            assert signs[s] == 1
        exclusive = set(geom.plaquettes[p]) ^ set(geom.plaquettes[q])
        for s in exclusive:
            assert signs[s] == -1

    def test_toggle_is_involution(self):
        base = FlipConfig(0b0110, 4)
        toggled_twice = FlipConfig(base.bits ^ 1 ^ 1, 4)
        assert np.array_equal(
            flip_signature(self.geom, base),
            flip_signature(self.geom, toggled_twice),
        )

    def test_excitation_flips_exactly_one_more_site(self):
        config = FlipConfig(0b0101, 4)
        plain = flip_signature(self.geom, config)
        excited = flip_signature(self.geom, config, excite(config, 2))
        diff = [s for s in range(8) if plain[s] != excited[s]]
        assert diff == [self.geom.plaquettes[2][2]]

    def test_signature_injective_where_kernel_is_trivial(self):
        for nx, ny in [(2, 2), (2, 3), (4, 2)]:
            geom = build_lattice(nx, ny)
            assert signature_kernel(geom) == []
            n = geom.n_plaquettes
            seen = set()
            for bits in range(1 << n):
                key = flip_signature(geom, FlipConfig(bits, n)).tobytes()
                assert key not in seen, f"collision at config 0x{bits:x}"
                seen.add(key)

    def test_signature_kernel_detected_on_3x3(self):
        # both torus dimensions divisible by 3 admit a plaquette
        # three-coloring; two whole color classes cover every site twice,
        # so the flip kernel is two-dimensional and collisions must be
        # surfaced rather than ignored
        geom = build_lattice(3, 3)
        kernel = signature_kernel(geom)
        assert len(kernel) == 2
        for config in kernel:
            assert config.bits != 0
            assert np.all(flip_signature(geom, config) == 1)
        # exhaustive corroboration: 2^9 configs collapse onto 2^7 signatures
        signatures = {
            flip_signature(geom, FlipConfig(bits, 9)).tobytes()
            for bits in range(512)
        }
        assert len(signatures) == 512 // 4

    def test_mismatched_length_rejected(self):
        with pytest.raises(ValueError):
            flip_signature(self.geom, FlipConfig(0, 9))

    def test_excitation_base_must_match(self):
        with pytest.raises(ValueError):
            flip_signature(
                self.geom, FlipConfig(0, 4), excite(FlipConfig(1, 4), 0)
            )


class TestExcite:
    def test_constructor_and_bounds(self):
        config = FlipConfig(0b1111, 4)
        label = excite(config, 3)
        assert label == ExcitedLabel(base=config, flipped_plaquette=3)
        with pytest.raises(ValueError):
            excite(config, 4)

    def test_injective_over_config_and_plaquette(self):
        labels = {
            excite(FlipConfig(bits, 4), i)
            for bits in range(16)
            for i in range(4)
        }
        assert len(labels) == 64


class TestProductKet:
    def setup_method(self):
        self.geom = build_lattice(2, 2)

    def test_all_z_plus_labels_give_all_up_basis_vector(self):
        psi = product_ket(["z"] * 4, [1] * 4)
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.allclose(psi, expected)

    def test_unit_norm(self):
        for bits in range(16):
            psi = build_product_ket(self.geom, FlipConfig(bits, 4))
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_empty_orthogonal_to_single_flip(self):
        empty = build_product_ket(self.geom, FlipConfig(0, 4))
        flipped = build_product_ket(self.geom, FlipConfig(1, 4))
        assert abs(np.vdot(empty, flipped)) < 1e-12

    def test_overlap_rule(self):
        # identical labels -> 1; any differing site sign -> 0
        cases = [
            (FlipConfig(0, 4), None),
            (FlipConfig(0b0011, 4), None),
            (FlipConfig(0b0101, 4), None),
            (FlipConfig(0, 4), excite(FlipConfig(0, 4), 0)),
            (FlipConfig(0b1000, 4), excite(FlipConfig(0b1000, 4), 2)),
        ]
        kets = [build_product_ket(self.geom, c, e) for c, e in cases]
        signs = [flip_signature(self.geom, c, e) for c, e in cases]
        for a in range(len(cases)):
            for b in range(len(cases)):
                overlap = np.vdot(kets[a], kets[b])
                expected = 1.0 if np.array_equal(signs[a], signs[b]) else 0.0
                assert abs(overlap - expected) < 1e-12

    def test_hilbert_cap(self):
        geom = build_lattice(3, 3)  # 18 sites > 16-site cap
        with pytest.raises(ValueError, match="cap"):
            build_product_ket(geom, FlipConfig(0, 9))


KEY_TORI = {shape: build_lattice(*shape) for shape in ((2, 2), (2, 3), (3, 2), (3, 3))}


@st.composite
def labels(draw, geom, config=None):
    """A flip configuration, with an excitation on one plaquette or none."""
    n = geom.n_plaquettes
    if config is None:
        config = FlipConfig(draw(st.integers(0, (1 << n) - 1)), n)
    plaquette = draw(st.none() | st.integers(0, n - 1))
    return config if plaquette is None else excite(config, plaquette)


def _config(label):
    return label.base if isinstance(label, ExcitedLabel) else label


def _ket(geom, label):
    if isinstance(label, ExcitedLabel):
        return build_product_ket(geom, label.base, label)
    return build_product_ket(geom, label)


@settings(max_examples=80, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(KEY_TORI)),
    relation=st.sampled_from(["independent", "same configuration", "kernel twin"]),
    data=st.data(),
)
def test_equal_keys_name_equal_kets_and_unequal_keys_orthogonal_ones(shape, relation, data):
    geom = KEY_TORI[shape]
    reference = _config(data.draw(labels(geom)))
    a = data.draw(labels(geom))
    kernel = signature_kernel(geom)  # nonempty on 3x3 only
    if relation == "independent":
        b = data.draw(labels(geom))
    elif relation == "kernel twin" and kernel:
        picks = data.draw(
            st.lists(st.booleans(), min_size=len(kernel), max_size=len(kernel)).filter(any)
        )
        bits = _config(a).bits
        for c, pick in zip(kernel, picks):
            bits ^= c.bits if pick else 0
        b = data.draw(labels(geom, FlipConfig(bits, geom.n_plaquettes)))
        assert _config(b) != _config(a)
    else:
        b = data.draw(labels(geom, _config(a)))
    # 3x3 has 18 sites; its 2**18 kets are built here under a raised cap
    with mock.patch.object(pauli, "HILBERT_CAP_SITES", geom.n_sites):
        ket_a, ket_b = _ket(geom, a), _ket(geom, b)
    if label_key(geom, reference, a) == label_key(geom, reference, b):
        assert np.array_equal(ket_a, ket_b)
    else:
        assert abs(np.vdot(ket_a, ket_b)) < 1e-12


def test_kernel_twins_share_a_key():
    geom = KEY_TORI[(3, 3)]
    reference, config = FlipConfig(0b101, 9), FlipConfig(0b110010011, 9)
    for c in signature_kernel(geom):
        twin = FlipConfig(config.bits ^ c.bits, 9)
        assert label_key(geom, reference, twin) == label_key(geom, reference, config)
        assert label_key(geom, reference, excite(twin, 7)) == label_key(
            geom, reference, excite(config, 7)
        )


def test_key_against_the_label_itself_is_empty():
    geom = KEY_TORI[(2, 3)]
    config = FlipConfig(0b101101, 6)
    assert label_key(geom, config, config) == frozenset()
    assert label_key(geom, config, excite(config, 4)) == {geom.position3_site(4)}
