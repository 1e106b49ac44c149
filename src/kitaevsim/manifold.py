"""Flip configurations and product kets of the degenerate ground manifold.

A flip configuration is a bit set over the N plaquettes; bit p set means
all six spins of plaquette p are flipped relative to the all-plus
reference.  A site's sign is (-1)**(number of set incident plaquettes).
An excitation on plaquette i additionally flips the owner-assigned sign
of the site at plaquette i's third position.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lattice import LatticeGeometry
from .pauli import product_ket, require_hilbert


@dataclass(frozen=True)
class FlipConfig:
    """Bit set over N plaquettes; bit p set <=> plaquette p fully flipped."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("plaquette count must be nonnegative")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits 0x{self.bits:x} out of range for n={self.n}")

    @property
    def hex(self) -> str:
        return f"0x{self.bits:x}"

    def unpacked(self) -> np.ndarray:
        """The n bits as a uint8 array; entry p is bit p."""
        raw = self.bits.to_bytes((self.n + 7) // 8, "little")
        return np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), count=self.n, bitorder="little"
        )


@dataclass(frozen=True)
class ExcitedLabel:
    """A flip configuration with the third spin of one plaquette flipped."""

    base: FlipConfig
    flipped_plaquette: int

    def __post_init__(self) -> None:
        if not 0 <= self.flipped_plaquette < self.base.n:
            raise ValueError(
                f"plaquette {self.flipped_plaquette} out of range "
                f"for n={self.base.n}"
            )

    @property
    def label(self) -> str:
        """The label written for this state: ``exc:p<plaquette>:<base hex>``."""
        return f"exc:p{self.flipped_plaquette}:{self.base.hex}"


def excite(config: FlipConfig, i: int) -> ExcitedLabel:
    """Label the state obtained by flipping plaquette i's third spin."""
    return ExcitedLabel(base=config, flipped_plaquette=i)


def enumerate_weight_class(n: int, k: int) -> list[FlipConfig]:
    """All C(n, k) configurations of weight k, in lexicographic order."""
    if not 0 <= k <= n:
        raise ValueError(f"weight {k} out of range for n={n}")
    out = []
    for positions in combinations(range(n), k):
        bits = 0
        for p in positions:
            bits |= 1 << p
        out.append(FlipConfig(bits=bits, n=n))
    return out


def flip_signature(
    geom: LatticeGeometry,
    config: FlipConfig,
    excitation: ExcitedLabel | None = None,
) -> np.ndarray:
    """Per-site signs (+-1) of the labeled product state.

    The sign of each site is the parity of its flipped incident
    plaquettes; an excitation also negates the sites of its key against
    ``config`` (:func:`label_key`), the third-position site of the
    excited plaquette.
    """
    if config.n != geom.n_plaquettes:
        raise ValueError(
            f"config has {config.n} plaquettes, geometry has {geom.n_plaquettes}"
        )
    if excitation is not None and excitation.base != config:
        raise ValueError("excitation.base does not match the given config")

    parity = config.unpacked()[geom.site_plaquette_index].sum(axis=1, dtype=np.int8) & 1
    signs = 1 - 2 * parity

    if excitation is not None:
        signs[list(label_key(geom, config, excitation))] *= -1
    return signs


def signature_difference(geom: LatticeGeometry, a: FlipConfig, b: FlipConfig) -> set[int]:
    """Sites where the flip signatures of ``a`` and ``b`` differ.

    These are the sites with an odd number of incident plaquettes among
    those where the two configurations differ, so the cost grows with the
    number of such plaquettes, not with the lattice.
    """
    for config in (a, b):
        if config.n != geom.n_plaquettes:
            raise ValueError(
                f"config has {config.n} plaquettes, geometry has {geom.n_plaquettes}"
            )
    sites: set[int] = set()
    bits = a.bits ^ b.bits
    while bits:
        low = bits & -bits
        sites.symmetric_difference_update(geom.plaquettes[low.bit_length() - 1])
        bits ^= low
    return sites


def label_key(
    geom: LatticeGeometry, reference: FlipConfig, label: FlipConfig | ExcitedLabel
) -> frozenset[int]:
    """Key of a label's product ket: the sites where its signs differ from
    those of ``reference``.

    All product kets of the manifold share the per-site bases, so against
    one reference two labels with equal keys name the same ket, flip-kernel
    twins included, and two with unequal keys name orthogonal kets.
    """
    if isinstance(label, ExcitedLabel):
        sites = signature_difference(geom, reference, label.base)
        sites ^= {geom.position3_site(label.flipped_plaquette)}
    else:
        sites = signature_difference(geom, reference, label)
    return frozenset(sites)


def signature_kernel(geom: LatticeGeometry) -> list[FlipConfig]:
    """Basis of flip configurations whose site signature is the identity.

    Distinct configurations collide exactly when the plaquette-to-site
    incidence matrix has a nontrivial mod-2 kernel; this happens on tori
    whose plaquettes admit a proper three-coloring (both dimensions
    divisible by three), where two whole color classes cover every site
    twice.  A nonempty basis is a hard diagnostic: the 2**N manifold
    coordinates then over-count the distinct product states.
    """
    rows = []
    for p in range(geom.n_plaquettes):
        site_mask = 0
        for s in geom.plaquettes[p]:
            site_mask |= 1 << s
        rows.append((site_mask, 1 << p))

    # XOR basis over GF(2), keyed by each stored row's lowest set bit
    kernel = []
    pivots: dict[int, tuple[int, int]] = {}
    for site_mask, subset in rows:
        while site_mask:
            low = site_mask & -site_mask
            if low not in pivots:
                pivots[low] = (site_mask, subset)
                break
            pivot_mask, pivot_subset = pivots[low]
            site_mask ^= pivot_mask
            subset ^= pivot_subset
        if site_mask == 0:
            kernel.append(FlipConfig(bits=subset, n=geom.n_plaquettes))
    return kernel


def build_product_ket(
    geom: LatticeGeometry,
    config: FlipConfig,
    excitation: ExcitedLabel | None = None,
) -> np.ndarray:
    """Explicit unit-norm product vector in the 2**n_sites Hilbert space."""
    require_hilbert(geom.n_sites)
    signs = flip_signature(geom, config, excitation)
    return product_ket(geom.site_components, signs)
