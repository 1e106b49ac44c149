"""The oracle's compiled right-hand side against the Pauli-streaming and
dense-matrix reference paths.

``apply_h0`` + ``apply_pauli_string`` is the reference on every torus;
on 2x2 the materialized matrices (``dense_h0``, ``dense_from_apply``)
are checked as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim.hamiltonian import CouplingParams, apply_h0, dense_h0, drive_string
from kitaevsim.lattice import build_lattice
from kitaevsim.oracle import _rhs
from kitaevsim.pauli import apply_pauli_string, dense_from_apply, string_term
from kitaevsim.perturbation import DriveSpec

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

    got = _rhs(geom, params, drive)(t, psi)
    ref = -1j * (apply_h0(geom, params, psi) + b * apply_pauli_string(psi, string))
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(got - ref) <= 1e-12 * scale

    if shape == (2, 2):
        h = dense_h0(geom, params)
        s = dense_from_apply(lambda v: apply_pauli_string(v, string), dim)
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
    got = phase * psi[np.arange(2**n) ^ mask]
    assert np.allclose(got, apply_pauli_string(psi, ops), rtol=0, atol=1e-14)


def test_string_term_rejects_repeated_site():
    with pytest.raises(ValueError, match="repeats a site"):
        string_term([(0, "x"), (1, "z"), (0, "y")], 3)


def test_string_term_rejects_bad_site_and_component():
    with pytest.raises(ValueError, match="out of range"):
        string_term([(3, "x")], 3)
    with pytest.raises(ValueError, match="unknown Pauli component"):
        string_term([(0, "w")], 3)
