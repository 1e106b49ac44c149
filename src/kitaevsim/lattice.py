"""Honeycomb torus geometry.

Sites are indexed ``2*(ix + nx*iy) + s`` where ``s=0`` is sublattice A and
``s=1`` is sublattice B.  Each unit cell carries one z bond (A-B inside the
cell); x and y bonds attach A to the B sites of neighbouring cells, giving
``3*nx*ny`` bonds and ``nx*ny`` hexagonal plaquettes on the torus.

A plaquette is stored as an ordered 6-tuple of sites.  The position labels
around a hexagon follow the fixed pattern (x, y, z, x, y, z); with the
ordering used here, each position's label equals the component of the
site's bond that points out of the hexagon.  Every site belongs to three
plaquettes and receives a different label from each one, so product kets
need a single canonical choice: the component assigned by the
lowest-indexed plaquette containing the site (the site's "owner").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

PLAQUETTE_PATTERN = ("x", "y", "z", "x", "y", "z")
COMPONENTS = ("x", "y", "z")


@dataclass(frozen=True)
class LatticeGeometry:
    """Immutable honeycomb torus: sites, typed bonds, ordered plaquettes."""

    nx: int
    ny: int
    sublattice: tuple[str, ...]
    bonds: tuple[tuple[int, int, str], ...]
    plaquettes: tuple[tuple[int, ...], ...]
    # site -> ((plaquette, position), ...) sorted by plaquette index
    site_plaquettes: tuple[tuple[tuple[int, int], ...], ...]
    owner: tuple[int, ...]
    site_components: tuple[str, ...]

    @property
    def n_sites(self) -> int:
        return 2 * self.nx * self.ny

    @property
    def n_plaquettes(self) -> int:
        return self.nx * self.ny

    def position3_site(self, p: int) -> int:
        """Site sitting at the third position (z label) of plaquette p."""
        return self.plaquettes[p][2]

    @cached_property
    def site_plaquette_index(self) -> np.ndarray:
        """(n_sites, 3) array of the plaquettes around each site."""
        return np.fromiter(
            (p for inc in self.site_plaquettes for p, _ in inc),
            dtype=np.intp, count=3 * self.n_sites,
        ).reshape(self.n_sites, 3)

    @cached_property
    def labelled_bonds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, component index) arrays of the bonds, in bond order, whose
        two endpoints both carry the bond's component as their label.

        Only these bonds have a nonzero expectation on a product ket of the
        manifold.  The component index points into ``COMPONENTS``.
        """
        comps = self.site_components
        picked = np.array(
            [
                (i, j, COMPONENTS.index(c))
                for i, j, c in self.bonds
                if comps[i] == comps[j] == c
            ],
            dtype=np.intp,
        ).reshape(-1, 3)
        return picked[:, 0], picked[:, 1], picked[:, 2]


@dataclass
class ValidationReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def build_lattice(nx: int, ny: int) -> LatticeGeometry:
    """Build the nx-by-ny honeycomb torus.

    Requires nx, ny >= 2: a single cell in either direction would wrap a
    plaquette onto itself and alias bonds.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"honeycomb torus needs nx, ny >= 2, got {nx}x{ny}")

    # cell c = ix + nx*iy, in the order the tables list cells
    cell = np.arange(nx * ny)
    ix, iy = cell % nx, cell // nx

    def site(dx: int, dy: int, s: int) -> np.ndarray:
        """Sublattice-s site of every cell's (dx, dy) neighbour."""
        return 2 * ((ix + dx) % nx + nx * ((iy + dy) % ny)) + s

    sublattice = ("A", "B") * (nx * ny)

    # every cell's A site bonds to a B site: z in its own cell, x below, y
    # below and to the right; the table lists all x bonds, then y, then z
    a = site(0, 0, 0).tolist()
    bonds: list[tuple[int, int, str]] = []
    for comp, (dx, dy) in zip(COMPONENTS, ((0, -1), (1, -1), (0, 0))):
        bonds.extend(zip(a, site(dx, dy, 1).tolist(), repeat(comp)))

    # Hexagon around cell (ix, iy); consecutive sites are bonded and the
    # position labels (x,y,z,x,y,z) match each site's outward bond.
    hexagons = np.stack(
        [site(0, 0, 0), site(0, 0, 1), site(0, 1, 0),
         site(1, 0, 1), site(1, 0, 0), site(1, -1, 1)],
        axis=1,
    )
    plaquettes = tuple(zip(*hexagons.T.tolist()))

    # entry 6p + pos of the flat table is site hexagons[p, pos]; a stable
    # sort by site lists each site's three (plaquette, position) pairs in
    # plaquette order
    order = np.argsort(hexagons.ravel(), kind="stable")
    inc_p, inc_pos = np.divmod(order, 6)
    pairs = list(zip(inc_p.tolist(), inc_pos.tolist()))
    site_plaquettes = tuple(zip(pairs[0::3], pairs[1::3], pairs[2::3]))

    owner = tuple(inc_p[0::3].tolist())
    site_components = tuple(PLAQUETTE_PATTERN[pos] for pos in inc_pos[0::3].tolist())

    return LatticeGeometry(
        nx=nx,
        ny=ny,
        sublattice=sublattice,
        bonds=tuple(bonds),
        plaquettes=plaquettes,
        site_plaquettes=site_plaquettes,
        owner=owner,
        site_components=site_components,
    )


def validate_geometry(geom: LatticeGeometry) -> ValidationReport:
    """Check every structural invariant; returns a report, never raises."""
    rep = ValidationReport()
    n = geom.n_sites
    n_plaq = geom.n_plaquettes

    rep.add("site_count", len(geom.sublattice) == n == 2 * geom.nx * geom.ny,
            f"{len(geom.sublattice)} sites")

    by_comp = {c: 0 for c in COMPONENTS}
    for _, _, c in geom.bonds:
        by_comp[c] = by_comp.get(c, 0) + 1
    rep.add(
        "bond_count",
        len(geom.bonds) == 3 * geom.nx * geom.ny
        and all(by_comp.get(c, 0) == geom.nx * geom.ny for c in COMPONENTS),
        f"per component {by_comp}",
    )

    rep.add("plaquette_count", len(geom.plaquettes) == geom.nx * geom.ny,
            f"{len(geom.plaquettes)} plaquettes")

    counts = [0] * n
    for sites in geom.plaquettes:
        for s in sites:
            if 0 <= s < n:
                counts[s] += 1
    rep.add("site_in_three_plaquettes", all(c == 3 for c in counts),
            f"min {min(counts)} max {max(counts)}" if counts else "empty")

    # every bond appears as a consecutive (cyclic) pair in exactly 2 plaquettes
    edge_use: dict[frozenset, int] = {}
    for sites in geom.plaquettes:
        for k in range(6):
            edge_use[frozenset((sites[k], sites[(k + 1) % 6]))] = (
                edge_use.get(frozenset((sites[k], sites[(k + 1) % 6])), 0) + 1
            )
    bond_pairs = {frozenset((i, j)) for i, j, _ in geom.bonds}
    two_each = all(edge_use.get(b, 0) == 2 for b in bond_pairs)
    no_stray = all(e in bond_pairs for e in edge_use)
    rep.add("bond_in_two_plaquettes", two_each and no_stray,
            "hexagon edges consistent with bond list" if two_each and no_stray
            else "mismatch between hexagon edges and bonds")

    alternating = all(
        all(geom.sublattice[sites[k]] != geom.sublattice[sites[(k + 1) % 6]]
            for k in range(6))
        for sites in geom.plaquettes
    )
    rep.add("sublattice_alternation", alternating)

    bond_comp = {frozenset((i, j)): c for i, j, c in geom.bonds}
    pattern_ok = True
    for sites in geom.plaquettes:
        comps = sorted(
            bond_comp.get(frozenset((sites[k], sites[(k + 1) % 6])), "?")
            for k in range(6)
        )
        if comps != ["x", "x", "y", "y", "z", "z"]:
            pattern_ok = False
    rep.add("plaquette_edge_components", pattern_ok, "{x,x,y,y,z,z} per hexagon")

    incidence_total = sum(len(inc) for inc in geom.site_plaquettes)
    rep.add("incidence_sum", incidence_total == 6 * n_plaq,
            f"{incidence_total} vs {6 * n_plaq}")

    return rep


def geometry_to_json(geom: LatticeGeometry) -> str:
    """Debug/golden-file dump of the full geometry."""
    doc = {
        "nx": geom.nx,
        "ny": geom.ny,
        "sites": [
            {"id": k, "sublattice": geom.sublattice[k]}
            for k in range(geom.n_sites)
        ],
        "bonds": [{"i": i, "j": j, "component": c} for i, j, c in geom.bonds],
        "plaquettes": [list(p) for p in geom.plaquettes],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
