"""The compiled Pauli kernel against the independent references.

Every Pauli string in ``src/`` acts as ``phase[k] * psi[k ^ mask]``
(``string_term``): the oracle's generator, ``apply_h0`` and
``apply_pauli_string``.  The per-site reshape kernels of
``tests/reference.py`` are the reference on every torus; on 2x2 its
Kronecker-product matrices are checked as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim import oracle
from kitaevsim.hamiltonian import CouplingParams, apply_h0, drive_string, h0_terms
from kitaevsim.lattice import build_lattice
from kitaevsim.oracle import _Generator
from kitaevsim.pauli import apply_pauli_string, string_term
from kitaevsim.perturbation import DriveSpec

import reference

GEOMS = {shape: build_lattice(*shape) for shape in ((2, 2), (2, 3), (3, 2))}

couplings = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
amplitudes = st.one_of(st.just(0.0), st.floats(0.001, 2.0))


def _random_psi(rng, dim):
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


@settings(max_examples=30, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    d=amplitudes,
    omega=st.floats(-3.0, 3.0),
    custom=st.booleans(),
    t=st.floats(0.0, 3.0),
    data=st.data(),
)
def test_compiled_rhs_matches_streaming_and_dense(
    shape, jx, jy, jz, d, omega, custom, t, data
):
    geom = GEOMS[shape]
    plaquette = data.draw(st.integers(0, geom.n_plaquettes - 1), label="plaquette")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = CouplingParams(jx=jx, jy=jy, jz=jz, d=d, omega=omega)
    if custom:
        grid = np.linspace(0.0, 3.0, 7)
        drive = DriveSpec.custom(grid, d * _random_psi(rng, 7), plaquette=plaquette)
    else:
        drive = DriveSpec.exponential(d, omega, plaquette=plaquette)
    dim = 2**geom.n_sites
    psi = _random_psi(rng, dim)
    string = drive_string(geom, plaquette)
    b = complex(drive.b_of(t))

    got = -1j * _Generator(geom, params, drive).apply(psi, b)
    ref = -1j * (reference.apply_h0(geom, params, psi) + b * reference.apply_pauli_string(psi, string))
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(got - ref) <= 1e-12 * scale

    if shape == (2, 2):
        h = reference.dense_h0_kron(geom, params)
        s = reference.kron_string(geom.n_sites, string)
        dense = -1j * (h @ psi + b * (s @ psi))
        assert np.linalg.norm(got - dense) <= 1e-12 * scale


@settings(max_examples=40, deadline=None, database=None)
@given(
    n=st.integers(1, 6),
    data=st.data(),
)
def test_string_term_matches_apply_pauli_string(n, data):
    sites = data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True))
    comps = data.draw(st.lists(st.sampled_from("xyz"), min_size=len(sites), max_size=len(sites)))
    ops = list(zip(sites, comps))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi = _random_psi(rng, 2**n)
    mask, phase = string_term(ops, n)
    ref = reference.apply_pauli_string(psi, ops)
    # every phase is +-1 or +-i, so both forms are exact
    assert np.array_equal(phase * psi[np.arange(2**n) ^ mask], ref)
    assert np.array_equal(apply_pauli_string(psi, ops), ref)


@settings(max_examples=40, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    seed=st.integers(0, 2**32 - 1),
)
def test_h0_terms_match_the_bond_streamed_reference(shape, jx, jy, jz, seed):
    geom = GEOMS[shape]
    params = CouplingParams(jx=jx, jy=jy, jz=jz)
    dim = 2**geom.n_sites
    psi = _random_psi(np.random.default_rng(seed), dim)
    # summed in bond order, apply_h0 reproduces the reference bit for bit
    assert np.array_equal(apply_h0(geom, params, psi), reference.apply_h0(geom, params, psi))

    terms = list(h0_terms(geom, params))
    flips = [(1 << i) | (1 << j) if comp in "xy" else 0
             for i, j, comp in geom.bonds if params.j(comp) != 0.0]
    assert [mask for mask, _ in terms] == flips

    # the oracle stacks the same terms into one row per mask, in bond
    # order, less the subnormal couplings it drops
    grouped: dict[int, list[np.ndarray]] = {}
    for mask, coeff in terms:
        if np.max(np.abs(coeff)) >= np.finfo(float).tiny:
            grouped.setdefault(mask, []).append(coeff)
    gen = _Generator(geom, params, DriveSpec.exponential(0.0, 0.0, plaquette=0))
    assert np.array_equal(gen.diag, sum(grouped.pop(0, []), np.zeros(dim)))
    idx_rows = [row for idx, _ in gen.groups for row in idx]
    coeff_rows = [row for _, coeff in gen.groups for row in coeff]
    assert [int(row[0]) for row in idx_rows] == list(grouped)
    assert len(coeff_rows) == len(idx_rows)
    for idx, coeff, group in zip(idx_rows, coeff_rows, grouped.values()):
        assert np.array_equal(idx, np.arange(dim) ^ int(idx[0]))
        assert np.array_equal(coeff, sum(group, np.zeros(dim)))


# rows per group: one, a few, all of them
GROUPINGS = {"one row": 1, "partial": 3, "all rows": 1000}


@settings(max_examples=40, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(GEOMS)),
    jx=couplings,
    jy=couplings,
    jz=couplings,
    b_re=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    b_im=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    grouping=st.sampled_from(sorted(GROUPINGS)),
    data=st.data(),
)
def test_grouped_kernel_matches_the_reference(shape, jx, jy, jz, b_re, b_im, grouping, data):
    geom = GEOMS[shape]
    plaquette = data.draw(st.integers(0, geom.n_plaquettes - 1), label="plaquette")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = CouplingParams(jx=jx, jy=jy, jz=jz)
    dim = 2**geom.n_sites
    rows = GROUPINGS[grouping]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_GROUP_BYTES", rows * 16 * dim)
        gen = _Generator(geom, params, DriveSpec.exponential(1.0, 0.0, plaquette=plaquette))

    sizes = [len(idx) for idx, _ in gen.groups]
    # one row per distinct flip mask, and the drive row last
    string = drive_string(geom, plaquette)
    tiny = np.finfo(float).tiny
    masks = {(1 << i) | (1 << j) for i, j, c in geom.bonds if c in "xy" and abs(params.j(c)) >= tiny}
    assert sum(sizes) == len(masks) + 1
    assert int(gen.groups[-1][0][-1][0]) == string_term(string, geom.n_sites)[0]
    assert all(size == min(rows, sum(sizes) - rows * g) for g, size in enumerate(sizes))

    psi = _random_psi(rng, dim)
    b = complex(b_re, b_im)
    got = gen.apply(psi, b)
    ref = reference.apply_h0(geom, params, psi) + b * reference.apply_pauli_string(psi, string)
    assert np.linalg.norm(got - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)


def test_string_term_rejects_repeated_site():
    with pytest.raises(ValueError, match="repeats a site"):
        string_term([(0, "x"), (1, "z"), (0, "y")], 3)


def test_apply_pauli_string_rejects_repeated_site():
    with pytest.raises(ValueError, match="repeats a site"):
        apply_pauli_string(np.ones(8, dtype=complex), [(2, "z"), (2, "x")])


def test_string_term_rejects_bad_site_and_component():
    with pytest.raises(ValueError, match="out of range"):
        string_term([(3, "x")], 3)
    with pytest.raises(ValueError, match="unknown Pauli component"):
        string_term([(0, "w")], 3)
