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
Each table is built once: as tuples of Python ints and strings, or as a
read-only numpy array where the array kernels index with it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

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
    site_components: tuple[str, ...]
    # (n_sites, 3): each site's plaquettes in increasing order, so column 0
    # is the site's owner
    site_plaquette_index: np.ndarray = field(compare=False, repr=False)
    # (i, j, component index) arrays of the bonds, in bond order, whose two
    # endpoints both carry the bond's component as their label: only these
    # have a nonzero expectation on a product ket of the manifold.  The
    # component index points into COMPONENTS.
    labelled_bonds: tuple[np.ndarray, np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @property
    def n_sites(self) -> int:
        return 2 * self.nx * self.ny

    @property
    def n_plaquettes(self) -> int:
        return self.nx * self.ny

    def position3_site(self, p: int) -> int:
        """Site sitting at the third position (z label) of plaquette p."""
        return self.plaquettes[p][2]


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

    # Hexagon around cell (ix, iy); consecutive sites are bonded and the
    # position labels (x,y,z,x,y,z) match each site's outward bond.
    hexagons = np.stack(
        [site(0, 0, 0), site(0, 0, 1), site(0, 1, 0),
         site(1, 0, 1), site(1, 0, 0), site(1, -1, 1)],
        axis=1,
    )
    plaquettes = tuple(zip(*hexagons.T.tolist()))

    # entry 6p + pos of the flat table is site hexagons[p, pos]; a stable
    # sort by site lists each site's three plaquettes in increasing order
    order = np.argsort(hexagons.ravel(), kind="stable")
    inc_p, inc_pos = np.divmod(order, 6)
    site_plaquette_index = inc_p.reshape(-1, 3)
    # PLAQUETTE_PATTERN repeats COMPONENTS, so the owner position's label
    # is COMPONENTS[pos % 3]
    comp = inc_pos[0::3] % 3
    site_components = tuple(COMPONENTS[c] for c in comp.tolist())

    # every cell's A site bonds to a B site: z in its own cell, x below, y
    # below and to the right; the table lists all x bonds, then y, then z
    a = np.tile(site(0, 0, 0), 3)
    b = np.concatenate([site(0, -1, 1), site(1, -1, 1), site(0, 0, 1)])
    c = np.arange(3).repeat(nx * ny)
    bonds = tuple(zip(a.tolist(), b.tolist(), (COMPONENTS[k] for k in c.tolist())))
    labelled_bonds = np.stack([a, b, c], dtype=np.intp)[:, (comp[a] == c) & (comp[b] == c)]

    for table in (site_plaquette_index, labelled_bonds):
        table.flags.writeable = False
    return LatticeGeometry(
        nx=nx,
        ny=ny,
        sublattice=sublattice,
        bonds=bonds,
        plaquettes=plaquettes,
        site_components=site_components,
        site_plaquette_index=site_plaquette_index,
        labelled_bonds=tuple(labelled_bonds),
    )


def validate_geometry(geom: LatticeGeometry) -> ValidationReport:
    """Check every structural invariant; returns a report, never raises."""
    rep = ValidationReport()
    n = geom.n_sites

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

    # each hexagon's consecutive (cyclic) site pairs; every bond must be an
    # edge of exactly 2 hexagons
    edges = [[frozenset((sites[k], sites[(k + 1) % 6])) for k in range(6)]
             for sites in geom.plaquettes]
    edge_use = Counter(e for hexagon in edges for e in hexagon)
    bond_pairs = {frozenset((i, j)) for i, j, _ in geom.bonds}
    two_each = all(edge_use[b] == 2 for b in bond_pairs)
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
    pattern_ok = all(
        sorted(bond_comp.get(e, "?") for e in hexagon) == ["x", "x", "y", "y", "z", "z"]
        for hexagon in edges
    )
    rep.add("plaquette_edge_components", pattern_ok, "{x,x,y,y,z,z} per hexagon")

    # each site's row: three increasing plaquettes that all hold the site
    inc = geom.site_plaquette_index
    bad = n if inc.shape != (n, 3) else sum(
        not 0 <= p0 < p1 < p2 < len(geom.plaquettes)
        or any(s not in geom.plaquettes[p] for p in (p0, p1, p2))
        for s, (p0, p1, p2) in enumerate(inc.tolist())
    )
    rep.add("incidence_sum", bad == 0, f"{bad} of {n} site rows wrong")

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
