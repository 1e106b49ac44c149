"""Bond Hamiltonian, plaquette operators, energies, and drive matrix elements.

Units: hbar = 1 throughout; couplings, energies and frequencies share the
same model units.

Energies and drive elements come from the labels alone: product kets of
the manifold carry one owner-assigned component label per site, a bond of
component alpha has a nonzero expectation only when both endpoint sites
carry the label alpha, in which case it contributes J_alpha * s_i * s_j,
and the drive string maps each product ket to exactly one other, its
image, the only ket with a drive element (:func:`drive_elements`).  A
state is named by its key, the sites where its ket differs from a
reference configuration's (:func:`~kitaevsim.manifold.label_key`), so an
energy is the reference's labelled-bond terms with those at the key's
sites negated, and no per-state work touches the other sites.  No 2**n
ket is built.  The tests hold both results to expectations taken on
explicit 2**n kets up to the Hilbert cap (``tests/reference.py``).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .lattice import COMPONENTS, PLAQUETTE_PATTERN, LatticeGeometry
from .manifold import (
    ExcitedLabel,
    FlipConfig,
    flip_signature,
    label_key,
)
from .pauli import PAULI, apply_pauli_string, pauli_eigenvector

# the drive string: the plaquette pattern with the third position's
# component replaced by x, so it flips the z-labeled third spin
DRIVE_PATTERN = ("x", "y", "x", "x", "y", "z")


@dataclass(frozen=True)
class CouplingParams:
    """Exchange couplings plus drive amplitude and frequency (hbar = 1)."""

    jx: float
    jy: float
    jz: float
    d: float = 0.0
    omega: float = 0.0

    def __post_init__(self) -> None:
        for name in ("jx", "jy", "jz", "d", "omega"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.d < 0:
            raise ValueError(f"drive amplitude must be >= 0, got {self.d}")

    def j(self, component: str) -> float:
        return {"x": self.jx, "y": self.jy, "z": self.jz}[component]


def h0_bonds(geom: LatticeGeometry, params: CouplingParams) -> Iterator[tuple[int, int, int, float, int | None]]:
    """H0 as one sign rule (i, j, mask, J, negative) per bond of nonzero coupling.

    The rules come in bond order.  The bond on sites i and j acts as
    ``coeff[k] * psi[k ^ mask]``, as its string would through
    :func:`string_term`, with coeff[k] = -J where the parity of the bits
    i and j of the output index k is ``negative`` and +J elsewhere
    (``negative`` None: +J everywhere).  An x bond flips both bits and
    has no sign; a y bond (sigma^y sigma^y = -s_i s_j with s = 1 - 2 bit)
    flips both and is negative where the parity is even; a z bond, mask
    0, is negative where it is odd.  This is the one definition of the
    bond signs: :func:`h0_terms` expands it into coefficient vectors, and
    the oracle reads it into its index rows and diagonal.
    """
    for i, j, comp in geom.bonds:
        coupling = params.j(comp)
        if coupling == 0.0:
            continue
        pair = (1 << i) | (1 << j)
        if comp == "x":
            yield i, j, pair, coupling, None
        elif comp == "y":
            yield i, j, pair, coupling, 0
        else:
            yield i, j, 0, coupling, 1


def h0_terms(geom: LatticeGeometry, params: CouplingParams) -> Iterator[tuple[int, np.ndarray]]:
    """H0 as one (mask, coefficient) term per bond of nonzero coupling.

    The terms come in bond order, one per rule of :func:`h0_bonds`; a
    bond acts as ``coeff[k] * psi[k ^ mask]`` and every coefficient is
    +-J, its sign from the parity of the bond's two bits of the output
    index k.  No complex phase is built.  The terms are yielded one at a
    time, so a caller that groups them never holds every bond's vector.
    """
    k = np.arange(2**geom.n_sites)
    for i, j, mask, coupling, negative in h0_bonds(geom, params):
        if negative is None:
            yield mask, np.full(len(k), coupling)
            continue
        odd = ((k >> i) ^ (k >> j)) & 1
        yield mask, coupling * (2 * odd - 1 if negative == 0 else 1 - 2 * odd)


def apply_h0(geom: LatticeGeometry, params: CouplingParams, psi: np.ndarray) -> np.ndarray:
    """H0 applied to a full Hilbert-space vector, summed in bond order."""
    if len(psi) != 2**geom.n_sites:
        raise ValueError(
            f"vector dimension {len(psi)} does not match 2^{geom.n_sites}"
        )
    k = np.arange(len(psi))
    out = np.zeros_like(psi)
    for mask, coeff in h0_terms(geom, params):
        out += coeff * psi[k ^ mask]
    return out


def dense_h0(geom: LatticeGeometry, params: CouplingParams) -> np.ndarray:
    """Dense H0 matrix; intended for small-lattice validation only."""
    dim = 2**geom.n_sites
    k = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
    # row k of a term holds its one entry in column k ^ mask
    for mask, coeff in h0_terms(geom, params):
        h[k, k ^ mask] += coeff
    return h


def plaquette_string(geom: LatticeGeometry, p: int) -> tuple[tuple[int, str], ...]:
    """(site, component) pairs of the plaquette operator w_p."""
    if not 0 <= p < geom.n_plaquettes:
        raise ValueError(f"plaquette {p} out of range")
    sites = geom.plaquettes[p]
    return tuple((sites[k], PLAQUETTE_PATTERN[k]) for k in range(6))


def drive_string(geom: LatticeGeometry, i: int) -> tuple[tuple[int, str], ...]:
    """(site, component) pairs of the six-Pauli drive string on plaquette i."""
    if not 0 <= i < geom.n_plaquettes:
        raise ValueError(f"plaquette {i} out of range")
    sites = geom.plaquettes[i]
    return tuple((sites[k], DRIVE_PATTERN[k]) for k in range(6))


def drive_image_sites(geom: LatticeGeometry, i: int) -> frozenset[int]:
    """Sites whose sign the drive string on plaquette i flips.

    A Pauli of a site's own component keeps that component's eigenket up
    to a sign; either other Pauli maps it to the opposite eigenket.  So
    the string maps every product ket of the manifold to exactly one
    product ket, its image, which differs from it on these sites, whatever
    the configuration.
    """
    comps = geom.site_components
    return frozenset(s for s, op in drive_string(geom, i) if op != comps[s])


def apply_plaquette(geom: LatticeGeometry, p: int, psi: np.ndarray) -> np.ndarray:
    return apply_pauli_string(psi, plaquette_string(geom, p))


def plaquette_expectation(geom: LatticeGeometry, p: int, psi: np.ndarray) -> float:
    """<psi| w_p |psi> for a unit vector psi."""
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"ket norm {norm} deviates from 1 beyond 1e-9")
    val = np.vdot(psi, apply_plaquette(geom, p, psi))
    return float(val.real)


def ground_projection(geom: LatticeGeometry, psi: np.ndarray) -> tuple[np.ndarray, float]:
    """Project onto the common w_p = +1 sector and normalize.

    Applies the product of (1 + w_p)/2 over all plaquettes.  Returns the
    normalized vector and the pre-normalization norm; a zero norm means
    the input has no w_p = +1 component and is reported as an error.
    """
    out = psi.astype(complex, copy=True)
    for p in range(geom.n_plaquettes):
        out = 0.5 * (out + apply_plaquette(geom, p, out))
    norm = float(np.linalg.norm(out))
    if norm < 1e-14:
        raise ValueError("state has no component in the all-plus flux sector")
    return out / norm, norm


# keyed by (component, sign, sign, op): at most 3 * 2 * 2 * 3 entries
@functools.cache
def _single_site_element(component: str, sign_ket: int, sign_bra: int, op: str) -> complex:
    """<component,sign_bra| sigma^op |component,sign_ket> in the frozen
    eigenvector convention of :mod:`kitaevsim.pauli`."""
    bra = pauli_eigenvector(component, sign_bra)
    ket = pauli_eigenvector(component, sign_ket)
    return complex(np.vdot(bra, PAULI[op] @ ket))


def drive_elements(
    geom: LatticeGeometry, reference: FlipConfig, keys, plaquette: int, d: float
) -> np.ndarray:
    """D <image| string |ket> for the product ket of each key against
    ``reference``, the drive string acting on ``plaquette``.

    The string maps each product ket to exactly one product ket, its
    image, whose signs are the ket's negated on :func:`drive_image_sites`;
    every other product ket has a zero element.  No ket is built: an
    element is D times the single-site elements taken in string order,
    from the ket's signs to the image's.  Only the signs on the string's
    six sites enter, so the product is taken once per sign pattern there
    (at most 2**6 of them, one reference flip signature for all keys) and
    gathered.
    """
    image = drive_image_sites(geom, plaquette)
    keys = list(keys)
    out = np.zeros(len(keys), dtype=complex)
    # the product below can give D = 0 a negative zero, whose angle is pi
    if d == 0.0:
        return out
    string = drive_string(geom, plaquette)
    signs = flip_signature(geom, reference)
    # a key's pattern: bit k set where it negates the string's k-th site
    bit = {s: 1 << k for k, (s, _) in enumerate(string)}
    sites = frozenset(bit)
    by_pattern: dict[int, complex] = {}
    for row, key in enumerate(keys):
        pattern = sum(bit[s] for s in key & sites)
        val = by_pattern.get(pattern)
        if val is None:
            val = complex(d)
            for s, op in string:
                sign = -int(signs[s]) if pattern & bit[s] else int(signs[s])
                val *= _single_site_element(
                    geom.site_components[s], sign, -sign if s in image else sign, op
                )
            by_pattern[pattern] = val
        out[row] = val
    return out


def drive_element(
    geom: LatticeGeometry, ground: FlipConfig, plaquette: int, d: float
) -> complex:
    """D <image| string |ground> for the drive string on ``plaquette``:
    the one-ket call of :func:`drive_elements`, keyed against ``ground``."""
    return complex(drive_elements(geom, ground, [frozenset()], plaquette, d)[0])


def perturbation_element(
    geom: LatticeGeometry,
    ground: FlipConfig,
    target: ExcitedLabel,
    params: CouplingParams,
    drive_plaquette: int,
) -> complex:
    """Time-independent drive matrix element M = D <target| string |ground>.

    The string acts on ``drive_plaquette`` and D is ``params.d``.  The
    target has a nonzero element only when it is the drive's image of the
    ground state, that is when its key against the ground state
    (:func:`~kitaevsim.manifold.label_key`) is the set of image sites; its
    element is then :func:`drive_element`.
    """
    if label_key(geom, ground, target) != drive_image_sites(geom, drive_plaquette):
        return 0.0 + 0.0j
    return drive_element(geom, ground, drive_plaquette, params.d)


# a block of energy_expectations holds about this many bytes per array
ENERGY_BLOCK_BYTES = 1 << 20


def energy_block_rows(geom: LatticeGeometry) -> int:
    """States per block of :func:`energy_expectations` on ``geom``."""
    return max(1, ENERGY_BLOCK_BYTES // (8 * (len(geom.labelled_bonds[0]) + 1)))


def energy_expectations(
    geom: LatticeGeometry, params: CouplingParams, reference: FlipConfig, keys
) -> np.ndarray:
    """<ket| H0 |ket> for the product ket of each key against ``reference``.

    A key's ket has the signs of ``reference``'s flip signature negated on
    the key's sites (:func:`~kitaevsim.manifold.label_key`).  So a state's
    row holds the reference's labelled-bond terms, each negated once for
    every endpoint it has in the key, and its energy is the sum of the row.
    Rows are summed in blocks of :func:`energy_block_rows`, so the memory
    held does not grow with the number of keys.
    """
    keys = list(keys)
    out = np.empty(len(keys))
    i, j, comp = geom.labelled_bonds
    signs = flip_signature(geom, reference).astype(float)
    bond_j = np.array([params.j(c) for c in COMPONENTS])[comp]
    reference_terms = bond_j * signs[i] * signs[j]
    # a site's label names one of its three bonds, so each site ends at
    # most one labelled bond: its column in a row of terms, or -1
    column = np.full(geom.n_sites, -1, dtype=np.intp)
    column[i] = column[j] = np.arange(1, len(i) + 1)
    step = energy_block_rows(geom)
    for start in range(0, len(keys), step):
        block = keys[start:start + step]
        row = np.array([r for r, key in enumerate(block) for _ in key], dtype=np.intp)
        col = column[np.array([s for key in block for s in key], dtype=np.intp)]
        terms = np.zeros((len(block), len(i) + 1))
        terms[:, 1:] = reference_terms
        # a bond with both endpoints in the key is negated twice
        np.negative.at(terms, (row[col > 0], col[col > 0]))
        # cumsum adds left to right from 0.0 along each row, as a loop
        # over the bonds would; np.sum's pairwise order would change
        # the last bits
        out[start:start + step] = np.cumsum(terms, axis=1)[:, -1]
    return out


def energy_expectation(
    geom: LatticeGeometry,
    params: CouplingParams,
    config: FlipConfig,
    excitation: ExcitedLabel | None = None,
) -> float:
    """<state| H0 |state> for a labeled manifold state: the one-key call
    of :func:`energy_expectations`, keyed against ``config``."""
    if excitation is not None and excitation.base != config:
        raise ValueError("excitation.base does not match the given config")
    key = label_key(geom, config, config if excitation is None else excitation)
    return float(energy_expectations(geom, params, config, [key])[0])


@dataclass
class EnergyTable:
    """Deterministic map (config bits, excited plaquette or -1) -> energy."""

    entries: dict[tuple[int, int], float]

    def rows(self) -> list[tuple[str, int, int, float]]:
        """CSV rows (bitmask hex, excited flag, plaquette or -1, energy)."""
        out = []
        for (bits, plaq), e in sorted(self.entries.items()):
            out.append((f"0x{bits:x}", 0 if plaq < 0 else 1, plaq, e))
        return out


def build_energy_table(geom: LatticeGeometry, params: CouplingParams, states) -> EnergyTable:
    """Tabulate H0 expectations for (config, optional excitation) pairs."""
    entries: dict[tuple[int, int], float] = {}
    for config, excitation in states:
        key = (
            config.bits,
            -1 if excitation is None else excitation.flipped_plaquette,
        )
        entries[key] = energy_expectation(geom, params, config, excitation)
    return EnergyTable(entries)
