import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from kitaevsim.lattice import (
    COMPONENTS,
    PLAQUETTE_PATTERN,
    build_lattice,
    geometry_to_json,
    validate_geometry,
)
from reference import loop_lattice


@pytest.mark.parametrize(
    "nx,ny,sites,bonds,plaquettes",
    [(2, 2, 8, 12, 4), (3, 3, 18, 27, 9), (2, 3, 12, 18, 6)],
)
def test_counts(nx, ny, sites, bonds, plaquettes):
    geom = build_lattice(nx, ny)
    assert geom.n_sites == sites
    assert len(geom.bonds) == bonds
    assert geom.n_plaquettes == plaquettes
    per_comp = Counter(c for _, _, c in geom.bonds)
    assert per_comp == {"x": nx * ny, "y": nx * ny, "z": nx * ny}


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 7), (7, 5), (13, 2), (24, 24)])
def test_tables_match_the_cell_by_cell_build(nx, ny):
    geom = build_lattice(nx, ny)
    sublattice, bonds, plaquettes, site_plaquettes, owner, site_components = loop_lattice(nx, ny)
    assert (geom.sublattice, geom.bonds, geom.plaquettes, geom.site_components) == (
        sublattice, bonds, plaquettes, site_components)
    # Python ints and strings, as the loops make them, not numpy scalars:
    # signature_kernel's 1 << s masks would wrap on a numpy int64
    assert {type(v) for v in (*geom.bonds[0], *geom.plaquettes[0], geom.site_components[0])} == {int, str}
    assert all(type(t) is tuple for t in (geom.sublattice, geom.bonds, geom.plaquettes,
                                           geom.bonds[0], geom.plaquettes[0], geom.site_components))
    # the index rows are the incidence, sorted by plaquette; column 0 is the owner
    index = geom.site_plaquette_index
    assert index.dtype == np.intp and not index.flags.writeable
    assert index.tolist() == [[p for p, _ in inc] for inc in site_plaquettes]
    assert tuple(index[:, 0].tolist()) == owner
    # the labelled bonds, picked one bond at a time
    picked = np.array(
        [(i, j, COMPONENTS.index(c)) for i, j, c in bonds
         if site_components[i] == site_components[j] == c],
        dtype=np.intp,
    ).reshape(-1, 3)
    assert len(geom.labelled_bonds) == 3
    for got, want in zip(geom.labelled_bonds, picked.T):
        assert got.dtype == np.intp and not got.flags.writeable
        assert np.array_equal(got, want)


def test_build_lattice_256_peak_memory():
    # each table is built once: about 64 MiB traced, where a second copy of
    # the incidence as tuples of pairs took the peak past 100 MiB
    tracemalloc.start()
    try:
        build_lattice(256, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20


@pytest.mark.parametrize("nx,ny", [(1, 3), (3, 1), (0, 2), (2, 0)])
def test_rejects_degenerate_wrap(nx, ny):
    with pytest.raises(ValueError):
        build_lattice(nx, ny)


def test_deterministic_construction():
    a = build_lattice(3, 3)
    b = build_lattice(3, 3)
    assert a == b


def test_every_site_in_three_plaquettes():
    geom = build_lattice(3, 3)
    assert geom.site_plaquette_index.shape == (geom.n_sites, 3)
    for site, row in enumerate(geom.site_plaquette_index.tolist()):
        assert len(set(row)) == 3
        assert all(site in geom.plaquettes[p] for p in row)


def test_incidence_sum_is_six_per_plaquette():
    for nx, ny in [(2, 2), (3, 3), (2, 4)]:
        geom = build_lattice(nx, ny)
        counts = np.bincount(geom.site_plaquette_index.ravel(), minlength=geom.n_plaquettes)
        assert counts.tolist() == [6] * geom.n_plaquettes


def test_plaquette_edges_are_bonds_with_full_component_multiset():
    geom = build_lattice(3, 3)
    bond_comp = {frozenset((i, j)): c for i, j, c in geom.bonds}
    for sites in geom.plaquettes:
        comps = []
        for k in range(6):
            edge = frozenset((sites[k], sites[(k + 1) % 6]))
            assert edge in bond_comp
            comps.append(bond_comp[edge])
        assert sorted(comps) == ["x", "x", "y", "y", "z", "z"]


def test_sublattice_alternation():
    geom = build_lattice(2, 3)
    for sites in geom.plaquettes:
        tags = [geom.sublattice[s] for s in sites]
        assert tags == ["A", "B", "A", "B", "A", "B"]


def test_site_component_is_owner_position_label():
    geom = build_lattice(3, 3)
    owner = geom.site_plaquette_index[:, 0].tolist()
    for site in range(geom.n_sites):
        assert owner[site] == min(p for p, sites in enumerate(geom.plaquettes) if site in sites)
        pos = geom.plaquettes[owner[site]].index(site)
        assert geom.site_components[site] == PLAQUETTE_PATTERN[pos]
    # position 3 (1-based) carries the z label
    for p, sites in enumerate(geom.plaquettes):
        s3 = sites[2]
        if owner[s3] == p:
            assert geom.site_components[s3] == "z"


def test_site_component_golden_histogram_3x3():
    # frozen output of the ownership rule on the 3x3 torus
    geom = build_lattice(3, 3)
    hist = Counter(geom.site_components)
    assert hist == {"x": 5, "y": 4, "z": 9}


def test_site_component_golden_2x2():
    geom = build_lattice(2, 2)
    assert geom.site_plaquette_index[:, 0].tolist() == [0, 0, 0, 0, 0, 1, 1, 0]
    assert geom.site_components == ("x", "y", "y", "x", "z", "z", "z", "z")


def failures(report):
    return [name for name, passed, _ in report.checks if not passed]


def test_validate_geometry_passes_for_builds():
    for nx, ny in [(2, 2), (3, 3), (4, 2)]:
        report = validate_geometry(build_lattice(nx, ny))
        assert report.ok, failures(report)


def test_validate_geometry_catches_missing_bond():
    geom = build_lattice(3, 3)
    broken = replace(geom, bonds=geom.bonds[1:])
    report = validate_geometry(broken)
    assert not report.ok
    assert "bond_in_two_plaquettes" in failures(report)


def test_validate_geometry_catches_flipped_sublattice():
    geom = build_lattice(3, 3)
    tags = list(geom.sublattice)
    tags[0] = "B"
    report = validate_geometry(replace(geom, sublattice=tuple(tags)))
    assert not report.ok
    assert "sublattice_alternation" in failures(report)


@pytest.mark.parametrize("swap", ["reversed row", "rows of two sites"])
def test_validate_geometry_catches_bad_incidence_row(swap):
    geom = build_lattice(3, 3)
    index = geom.site_plaquette_index.copy()
    if swap == "reversed row":
        index[4] = index[4, ::-1]
    else:
        index[[0, 5]] = index[[5, 0]]
    report = validate_geometry(replace(geom, site_plaquette_index=index))
    assert failures(report) == ["incidence_sum"]


def test_geometry_json_dump():
    geom = build_lattice(2, 2)
    doc = json.loads(geometry_to_json(geom))
    assert doc["nx"] == 2 and doc["ny"] == 2
    assert len(doc["sites"]) == 8
    assert len(doc["bonds"]) == 12
    assert all(len(p) == 6 for p in doc["plaquettes"])
    assert doc["sites"][0] == {"id": 0, "sublattice": "A"}
    # dump is stable
    assert geometry_to_json(geom) == geometry_to_json(build_lattice(2, 2))
