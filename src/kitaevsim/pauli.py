"""Pauli strings on bitmask-indexed state vectors.

Convention: basis index bit k holds site k, bit value 0 = spin up
(sigma^z = +1).  Vectors are complex numpy arrays of length 2**n.
A string on distinct sites compiles (:func:`string_term`) to a flip
mask and a phase vector and acts as ``phase[k] * psi[k ^ mask]``;
:func:`~kitaevsim.hamiltonian.h0_terms` builds the H0 bond terms in that
form from bit parities, without it.
"""

from __future__ import annotations

import numpy as np

HILBERT_CAP_SITES = 16

_SQ2 = 1.0 / np.sqrt(2.0)

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# fixed global-phase convention for single-site eigenvectors
_EIGVEC = {
    ("x", 1): np.array([_SQ2, _SQ2], dtype=complex),
    ("x", -1): np.array([_SQ2, -_SQ2], dtype=complex),
    ("y", 1): np.array([_SQ2, 1j * _SQ2], dtype=complex),
    ("y", -1): np.array([_SQ2, -1j * _SQ2], dtype=complex),
    ("z", 1): np.array([1.0, 0.0], dtype=complex),
    ("z", -1): np.array([0.0, 1.0], dtype=complex),
}


def pauli_eigenvector(component: str, sign: int) -> np.ndarray:
    """Normalized eigenvector of sigma^component with eigenvalue sign."""
    return _EIGVEC[(component, int(sign))].copy()


def require_hilbert(n_sites: int) -> None:
    """Raise ValueError unless a 2**n_sites state vector is within the cap."""
    if n_sites > HILBERT_CAP_SITES:
        raise ValueError(
            f"{n_sites} sites exceeds the Hilbert cap of {HILBERT_CAP_SITES} "
            f"sites; lattice too large for the full 2**n state space"
        )


def n_sites_of(psi: np.ndarray) -> int:
    n = int(len(psi)).bit_length() - 1
    if 2**n != len(psi):
        raise ValueError(f"vector length {len(psi)} is not a power of two")
    return n


def product_ket(components, signs) -> np.ndarray:
    """Tensor product of single-site eigenvectors, site k on bit k."""
    psi = np.ones(1, dtype=complex)
    for comp, s in zip(components, signs):
        psi = np.kron(_EIGVEC[(comp, int(s))], psi)
    return psi


def apply_pauli_string(psi: np.ndarray, ops) -> np.ndarray:
    """Product of single-site Paulis on distinct sites; ops = [(site, component), ...]."""
    mask, phase = string_term(ops, n_sites_of(psi))
    return phase * psi[np.arange(len(psi)) ^ mask]


def string_term(ops, n: int) -> tuple[int, np.ndarray]:
    """Compile a Pauli string on distinct sites to (mask, phase).

    The string then acts as ``out[k] = phase[k] * psi[k ^ mask]`` on a
    vector of length 2**n: x and y flip their site's bit, and y and z
    contribute a factor that depends on the output index's bit.
    """
    sites = [site for site, _ in ops]
    if len(set(sites)) != len(sites):
        raise ValueError(f"Pauli string {tuple(ops)} repeats a site")
    k = np.arange(2**n)
    mask = 0
    phase = np.ones(2**n, dtype=complex)
    for site, comp in ops:
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for {n} sites")
        # sign = +1 where the output bit is 0, -1 where it is 1
        sign = 1 - 2 * ((k >> site) & 1)
        if comp == "x":
            mask |= 1 << site
        elif comp == "y":
            mask |= 1 << site
            phase *= -1j * sign
        elif comp == "z":
            phase *= sign
        else:
            raise ValueError(f"unknown Pauli component {comp!r}")
    return mask, phase


def dense_from_apply(apply_fn, dim: int) -> np.ndarray:
    """Materialize a linear operator column by column (validation use)."""
    mat = np.empty((dim, dim), dtype=complex)
    e = np.zeros(dim, dtype=complex)
    for k in range(dim):
        e[k] = 1.0
        mat[:, k] = apply_fn(e)
        e[k] = 0.0
    return mat
