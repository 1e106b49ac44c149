"""Bond Hamiltonian, plaquette operators, energies, and drive matrix elements.

Units: hbar = 1 throughout; couplings, energies and frequencies share the
same model units.

Two interchangeable energy engines are provided.  The "hilbert" engine
evaluates expectation values in the explicit 2**n Hilbert space and is
authoritative at desk scale.  The "label" engine exploits the product
structure of the manifold kets: a bond of component alpha has a nonzero
expectation only when both endpoint sites carry the owner-assigned label
alpha, in which case it contributes J_alpha * s_i * s_j.  The engines
agree exactly on product kets; tests calibrate the label engine against
the hilbert engine before it is trusted on lattices beyond the cap.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .lattice import COMPONENTS, PLAQUETTE_PATTERN, LatticeGeometry
from .manifold import ExcitedLabel, FlipConfig, build_product_ket, flip_signature
from .pauli import PAULI, apply_pauli_string, pauli_eigenvector, string_term

# the drive string: the plaquette pattern with the third position's
# component replaced by x, so it flips the z-labeled third spin
DRIVE_PATTERN = ("x", "y", "x", "x", "y", "z")

ENGINES = ("hilbert", "label")


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


def h0_terms(geom: LatticeGeometry, params: CouplingParams) -> Iterator[tuple[int, np.ndarray]]:
    """H0 as one (mask, coefficient) term per bond of nonzero coupling.

    The terms come in bond order; a bond acts as
    ``coeff[k] * psi[k ^ mask]`` (:func:`string_term`), and two-site x, y
    and z strings all have real phases.  They are yielded one at a time,
    so a caller that groups them never holds every bond's vector.
    """
    for i, j, comp in geom.bonds:
        coupling = params.j(comp)
        if coupling == 0.0:
            continue
        mask, phase = string_term(((i, comp), (j, comp)), geom.n_sites)
        yield mask, coupling * phase.real


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


def perturbation_elements(
    geom: LatticeGeometry,
    ground: FlipConfig,
    targets,
    params: CouplingParams,
    drive_plaquette: int | None = None,
    engine: str = "hilbert",
) -> list[complex]:
    """:func:`perturbation_element` from one ground state to each target.

    The ground state's ket (hilbert engine) or flip signature (label
    engine) is built once for all targets.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    targets = list(targets)
    strings = [
        drive_string(geom, tg.flipped_plaquette if drive_plaquette is None else drive_plaquette)
        for tg in targets
    ]

    if params.d == 0.0:
        return [0.0 + 0.0j] * len(targets)

    if engine == "hilbert":
        ket_g = build_product_ket(geom, ground)
        return [
            params.d * complex(
                np.vdot(build_product_ket(geom, tg.base, tg), apply_pauli_string(ket_g, string))
            )
            for tg, string in zip(targets, strings)
        ]

    signs_g = flip_signature(geom, ground)
    return [
        _label_element(geom, signs_g, flip_signature(geom, tg.base, tg), string, params.d)
        for tg, string in zip(targets, strings)
    ]


def _label_element(geom, signs_g, signs_t, string, d: float) -> complex:
    """Product of single-site 2x2 matrix elements along the drive string;
    zero if the two signatures differ on a site off the string."""
    differing = np.flatnonzero(signs_g != signs_t).tolist()
    on_string = {s for s, _ in string}
    if any(s not in on_string for s in differing):
        return 0.0 + 0.0j
    val = complex(d)
    for s, op in string:
        val *= _single_site_element(
            geom.site_components[s], int(signs_g[s]), int(signs_t[s]), op
        )
        if val == 0.0:
            return 0.0 + 0.0j
    return val


def perturbation_element(
    geom: LatticeGeometry,
    ground: FlipConfig,
    target: ExcitedLabel,
    params: CouplingParams,
    drive_plaquette: int | None = None,
    engine: str = "hilbert",
) -> complex:
    """Time-independent drive matrix element M = D <target| string |ground>.

    The string acts on ``drive_plaquette`` (defaults to the target's own
    flipped plaquette).  The full time-dependent element is B(t) * M / D.
    """
    return perturbation_elements(
        geom, ground, [target], params, drive_plaquette, engine
    )[0]


def energy_expectation(
    geom: LatticeGeometry,
    params: CouplingParams,
    config: FlipConfig,
    excitation: ExcitedLabel | None = None,
    engine: str = "label",
) -> float:
    """<state| H0 |state> for a labeled manifold state."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "hilbert":
        ket = build_product_ket(geom, config, excitation)
        return float(np.vdot(ket, apply_h0(geom, params, ket)).real)

    signs = flip_signature(geom, config, excitation).astype(float)
    i, j, comp = geom.labelled_bonds
    couplings = np.array([params.j(c) for c in COMPONENTS])
    terms = couplings[comp] * signs[i] * signs[j]
    # cumsum adds left to right from 0.0, as a loop over the bonds would;
    # np.sum's pairwise order would change the last bits
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


@dataclass
class EnergyTable:
    """Deterministic map (config bits, excited plaquette or -1) -> energy."""

    engine: str
    entries: dict[tuple[int, int], float]

    def get(self, config: FlipConfig, excitation: ExcitedLabel | None = None) -> float:
        key = (config.bits, -1 if excitation is None else excitation.flipped_plaquette)
        return self.entries[key]

    def rows(self) -> list[tuple[str, int, int, float]]:
        """CSV rows (bitmask hex, excited flag, plaquette or -1, energy)."""
        out = []
        for (bits, plaq), e in sorted(self.entries.items()):
            out.append((f"0x{bits:x}", 0 if plaq < 0 else 1, plaq, e))
        return out


def build_energy_table(
    geom: LatticeGeometry,
    params: CouplingParams,
    states,
    engine: str = "label",
) -> EnergyTable:
    """Tabulate H0 expectations for (config, optional excitation) pairs."""
    entries: dict[tuple[int, int], float] = {}
    for config, excitation in states:
        key = (
            config.bits,
            -1 if excitation is None else excitation.flipped_plaquette,
        )
        entries[key] = energy_expectation(
            geom, params, config, excitation, engine=engine
        )
    return EnergyTable(engine=engine, entries=entries)
