import numpy as np
import pytest

from kitaevsim.hamiltonian import (
    CouplingParams,
    apply_h0,
    apply_plaquette,
    build_energy_table,
    dense_h0,
    drive_string,
    energy_expectation,
    ground_projection,
    perturbation_element,
    plaquette_expectation,
    plaquette_string,
)
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, build_product_ket, excite
from kitaevsim.pauli import dense_from_apply, product_ket

from reference import apply_bond_hamiltonian, dense_h0_kron, hilbert_element, hilbert_energy


PARAMS = CouplingParams(jx=1.0, jy=0.8, jz=1.2, d=1.0, omega=0.5)


class TestCouplingParams:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CouplingParams(jx=float("nan"), jy=0.0, jz=0.0)

    def test_rejects_negative_drive(self):
        with pytest.raises(ValueError):
            CouplingParams(jx=1.0, jy=1.0, jz=1.0, d=-0.1)


class TestApplyH0:
    def test_two_site_z_bond_eigenstate(self):
        # |up,up> is a sigma^z sigma^z eigenstate with eigenvalue +1
        ket = product_ket(["z", "z"], [1, 1])
        out = apply_bond_hamiltonian([(0, 1, "z")], lambda c: 1.2, ket)
        assert np.allclose(out, 1.2 * ket, atol=1e-14)

    def test_zero_couplings_give_zero_vector(self):
        geom = build_lattice(2, 2)
        params = CouplingParams(jx=0.0, jy=0.0, jz=0.0)
        psi = np.ones(256, dtype=complex) / 16.0
        assert np.allclose(apply_h0(geom, params, psi), 0.0)

    def test_matches_independent_kron_construction(self):
        geom = build_lattice(2, 2)
        h_kron = dense_h0_kron(geom, PARAMS)
        rng = np.random.default_rng(3)
        for _ in range(3):
            psi = rng.normal(size=256) + 1j * rng.normal(size=256)
            assert np.allclose(apply_h0(geom, PARAMS, psi), h_kron @ psi, atol=1e-11)
        ket = build_product_ket(geom, FlipConfig(0, 4))
        direct = np.vdot(ket, apply_h0(geom, PARAMS, ket))
        oracle = np.vdot(ket, h_kron @ ket)
        assert abs(direct - oracle) < 1e-12

    def test_dense_h0_matches_independent_kron_construction(self):
        geom = build_lattice(2, 2)
        for params in (PARAMS, CouplingParams(jx=0.0, jy=-0.7, jz=0.0)):
            assert np.allclose(dense_h0(geom, params), dense_h0_kron(geom, params), rtol=0, atol=1e-14)

    def test_hermitian_action(self):
        geom = build_lattice(2, 2)
        rng = np.random.default_rng(11)
        u = rng.normal(size=256) + 1j * rng.normal(size=256)
        v = rng.normal(size=256) + 1j * rng.normal(size=256)
        lhs = np.vdot(u, apply_h0(geom, PARAMS, v))
        rhs = np.conj(np.vdot(v, apply_h0(geom, PARAMS, u)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_dimension_mismatch(self):
        geom = build_lattice(2, 2)
        with pytest.raises(ValueError):
            apply_h0(geom, PARAMS, np.ones(128, dtype=complex))


class TestPlaquetteOperators:
    def setup_method(self):
        self.geom = build_lattice(2, 2)

    def test_string_follows_pattern(self):
        ops = plaquette_string(self.geom, 0)
        assert [c for _, c in ops] == ["x", "y", "z", "x", "y", "z"]
        assert [s for s, _ in ops] == list(self.geom.plaquettes[0])

    def test_commutes_with_h0(self):
        h = dense_h0(self.geom, PARAMS)
        for p in range(4):
            w = dense_from_apply(lambda v, p=p: apply_plaquette(self.geom, p, v), 256)
            assert np.max(np.abs(h @ w - w @ h)) < 1e-12

    def test_spectrum_is_plus_minus_one(self):
        w = dense_from_apply(lambda v: apply_plaquette(self.geom, 1, v), 256)
        evals = np.linalg.eigvalsh(w)
        assert np.max(np.abs(np.abs(evals) - 1.0)) < 1e-10

    def test_raw_ket_expectations_owner_plaquette(self):
        # plaquette 0 owns all six of its sites on the 2x2 torus, so raw
        # product kets are exact w_0 eigenstates; other plaquettes mix
        # components and their expectation vanishes
        for bits in range(16):
            ket = build_product_ket(self.geom, FlipConfig(bits, 4))
            assert abs(plaquette_expectation(self.geom, 0, ket) - 1.0) < 1e-12
            for p in (1, 2, 3):
                assert abs(plaquette_expectation(self.geom, p, ket)) < 1e-12

    def test_excited_ket_flux_fixture(self):
        # frozen Hilbert-engine fixture: the excitation flips w_0 only
        config = FlipConfig(0, 4)
        ket = build_product_ket(self.geom, config, excite(config, 0))
        values = [plaquette_expectation(self.geom, p, ket) for p in range(4)]
        assert np.allclose(values, [-1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_projected_kets_have_unit_flux_everywhere(self):
        for bits in (0, 1, 2, 4, 8):
            raw = build_product_ket(self.geom, FlipConfig(bits, 4))
            psi, norm = ground_projection(self.geom, raw)
            assert norm > 0.1
            for p in range(4):
                assert abs(plaquette_expectation(self.geom, p, psi) - 1.0) < 1e-10

    def test_rejects_unnormalized_ket(self):
        ket = np.ones(256, dtype=complex)
        with pytest.raises(ValueError):
            plaquette_expectation(self.geom, 0, ket)


class TestPerturbationElement:
    def setup_method(self):
        self.geom = build_lattice(2, 2)
        self.empty = FlipConfig(0, 4)

    def test_drive_string_substitutes_position_three(self):
        ops = drive_string(self.geom, 0)
        assert [c for _, c in ops] == ["x", "y", "x", "x", "y", "z"]

    def test_connected_element_fixture(self):
        # frozen value: |M| = D for the excitation of the driven plaquette 0
        m = perturbation_element(self.geom, self.empty, excite(self.empty, 0), PARAMS, 0)
        assert abs(m - 1.0) < 1e-12
        assert abs(hilbert_element(self.geom, self.empty, excite(self.empty, 0), PARAMS) - 1.0) < 1e-12

    def test_orthogonal_targets_give_zero(self):
        for j in (1, 2, 3):
            target = excite(self.empty, j)
            m = perturbation_element(self.geom, self.empty, target, PARAMS, drive_plaquette=0)
            assert m == 0.0
            assert hilbert_element(self.geom, self.empty, target, PARAMS, drive_plaquette=0) == 0.0

    def test_zero_drive_amplitude(self):
        params = CouplingParams(jx=1.0, jy=1.0, jz=1.0, d=0.0)
        m = perturbation_element(
            self.geom, self.empty, excite(self.empty, 0), params, drive_plaquette=0
        )
        assert m == 0.0

    def test_engines_agree_across_configs(self):
        for bits in (0, 1, 3, 5, 15):
            config = FlipConfig(bits, 4)
            for i in range(4):
                for j in range(4):
                    target = excite(config, j)
                    mh = hilbert_element(self.geom, config, target, PARAMS, drive_plaquette=i)
                    ml = perturbation_element(self.geom, config, target, PARAMS, drive_plaquette=i)
                    assert abs(mh - ml) < 1e-12


class TestEnergies:
    def setup_method(self):
        self.geom = build_lattice(2, 2)

    def test_engines_agree_on_all_configs(self):
        params = CouplingParams(jx=0.7, jy=1.1, jz=1.3)
        for bits in range(16):
            config = FlipConfig(bits, 4)
            el = energy_expectation(self.geom, params, config)
            eh = hilbert_energy(self.geom, params, config)
            assert abs(el - eh) < 1e-11
            target = excite(config, 0)
            el = energy_expectation(self.geom, params, config, target)
            eh = hilbert_energy(self.geom, params, config, target)
            assert abs(el - eh) < 1e-11

    def test_known_values_on_2x2(self):
        params = CouplingParams(jx=1.0, jy=1.0, jz=1.0)
        empty = FlipConfig(0, 4)
        assert energy_expectation(self.geom, params, empty) == pytest.approx(2.0)
        assert energy_expectation(
            self.geom, params, empty, excite(empty, 0)
        ) == pytest.approx(0.0)

    def test_ownership_labels_break_translation_covariance(self):
        # the owner rule is index-based, so translating a configuration can
        # change its expectation value; this documents the counterexample
        params = CouplingParams(jx=1.0, jy=1.0, jz=1.0)
        e_orig = energy_expectation(self.geom, params, FlipConfig(0b0001, 4))
        e_translated = energy_expectation(self.geom, params, FlipConfig(0b0100, 4))
        assert e_orig == pytest.approx(-2.0)
        assert e_translated == pytest.approx(2.0)
        assert e_orig != e_translated

    def test_energy_table_rows(self):
        params = CouplingParams(jx=1.0, jy=1.0, jz=1.0)
        empty = FlipConfig(0, 4)
        table = build_energy_table(
            self.geom, params,
            [(empty, None), (empty, excite(empty, 0))],
        )
        rows = table.rows()
        assert rows == [("0x0", 0, -1, 2.0), ("0x0", 1, 0, 0.0)]
        assert table.entries == {(0, -1): 2.0, (0, 0): 0.0}
