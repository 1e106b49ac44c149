"""Independent reference implementations the tests compare against.

Each single-site Pauli acts on a reshaped view of the state vector, and
the dense builders take explicit Kronecker products, so neither path
shares code with :func:`kitaevsim.pauli.string_term`, the
``phase[k] * psi[k ^ mask]`` kernel that ``src/`` runs.  Convention as in
:mod:`kitaevsim.pauli`: basis index bit k holds site k, bit value 0 =
spin up.

:func:`write_csv_rows` formats a CSV cell by cell from row tuples, the
bytes the streamed column-wise :func:`kitaevsim.output.write_csv` must
reproduce.

:func:`loop_lattice` builds the torus tables cell by cell, the tuples
that the array-built :func:`kitaevsim.lattice.build_lattice` must return.

The label engine's references are per-site loops: signatures, bond
energies summed left to right, drive elements as products along the
string, and :func:`scan_connected_targets`, which finds the targets of a
drive by computing the element of every candidate excitation.  Up to the
Hilbert cap, :func:`hilbert_energy` and :func:`hilbert_element` take the
same energies and drive elements as expectations on explicit 2^n kets.

:func:`loop_unwrap` is the per-sample argument unwrapping that
:func:`kitaevsim.phase.decompose_values` must reproduce bit for bit, and
:func:`loop_sweep_rows` the per-omega loop whose rows ``sweep`` must
write bit for bit from its (omega x samples) arrays.
:func:`loop_slopes` and :func:`loop_stability_intervals` are the former
per-sample walks of :mod:`kitaevsim.phase`: the slopes, intervals and
too-few-samples error that ``_slopes`` and ``stability_intervals`` must
reproduce bit for bit from the run finder ``runs``.

:func:`grouped_apply` is the oracle generator's former kernel, one real
coefficient row per distinct flip mask built from :func:`string_term`'s
phases: with one row per group it adds the diagonal, then each row, one
at a time, the sums that the chunked matvec of ``oracle._Generator``
must reproduce bit for bit.

:func:`gram` and :func:`reduced` take a thermal mixture's K x K member Gram
matrix and its reduced matrix on kept sites from explicit 2^n member kets,
the forms :func:`kitaevsim.density.keyed_mixture` must match from keyed labels.

:func:`dense_mixture` is the whole dense matrix sum_k p_k |psi_k><psi_k|
summed as ``ThermalEnsemble.density`` once built it, and
:func:`dense_density_payload` the payload every ``density`` field was
written as before it moved to the support: every basis label and all
dim x dim entries, ``np.outer`` for a pure state and
:func:`dense_mixture` for a mixture.  The support block of
``DensityMatrix.to_payload`` must reproduce their entries bit for bit.

:func:`loop_evolve_coefficients` is the first order of one member keyed
against the member itself, its drive element a product along the string
from the member's own flip signature: the series, energies and elements
that :func:`kitaevsim.perturbation.first_order`, keyed against one
reference for all members, must reproduce bit for bit.
:func:`loop_schmidt_weights` decomposes one block at a time, each with its
own scatter and SVD, the weights the stacked decomposition of
:func:`kitaevsim.density.schmidt_weights` must reproduce bit for bit.

:func:`expm_taylor` is the dense matrix exponential by scaling and
squaring a Taylor series, the reference of the oracle's ``expv``.
"""

import math
from pathlib import Path

import numpy as np

from kitaevsim.density import DensityMatrix, reduced_density_matrix
from kitaevsim.hamiltonian import (
    _single_site_element,
    drive_image_sites,
    drive_string,
    energy_expectations,
)
from kitaevsim.lattice import COMPONENTS, PLAQUETTE_PATTERN
from kitaevsim.manifold import build_product_ket, excite, flip_signature, label_key
from kitaevsim.output import header_block
from kitaevsim.pauli import PAULI, n_sites_of, pauli_eigenvector, string_term
from kitaevsim.perturbation import (
    CoefficientSeries,
    coefficient_closed_form,
    coefficient_interpolated,
)


def write_csv_rows(path: Path, config: dict, columns: list[str], rows) -> None:
    """CSV with a '#' header block; floats at full round-trip precision."""
    out = header_block(config)
    out.append(",".join(columns))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("1" if cell else "0")
            elif isinstance(cell, float):
                cells.append(f"{float(cell):.17g}")
            else:
                cells.append(str(cell))
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")


def apply_pauli(psi: np.ndarray, site: int, component: str) -> np.ndarray:
    """sigma_site^component applied to psi (out of place)."""
    n = n_sites_of(psi)
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} sites")
    arr = psi.reshape(2 ** (n - 1 - site), 2, 2**site)
    out = np.empty_like(arr)
    if component == "x":
        out[:, 0, :] = arr[:, 1, :]
        out[:, 1, :] = arr[:, 0, :]
    elif component == "y":
        out[:, 0, :] = -1j * arr[:, 1, :]
        out[:, 1, :] = 1j * arr[:, 0, :]
    elif component == "z":
        out[:, 0, :] = arr[:, 0, :]
        out[:, 1, :] = -arr[:, 1, :]
    else:
        raise ValueError(f"unknown Pauli component {component!r}")
    return out.reshape(psi.shape)


def apply_pauli_string(psi: np.ndarray, ops) -> np.ndarray:
    """Product of single-site Paulis; ops = [(site, component), ...],
    the first pair acting on psi first."""
    out = psi
    for site, comp in ops:
        out = apply_pauli(out, site, comp)
    return out


def apply_bond_hamiltonian(bonds, j_of, psi: np.ndarray) -> np.ndarray:
    """Sum of J_alpha sigma_i^alpha sigma_j^alpha terms streamed over bonds.

    ``bonds`` is an iterable of (i, j, component); ``j_of`` maps a
    component to its coupling.
    """
    out = np.zeros_like(psi)
    for i, j, comp in bonds:
        coupling = j_of(comp)
        if coupling == 0.0:
            continue
        out += coupling * apply_pauli(apply_pauli(psi, j, comp), i, comp)
    return out


def apply_h0(geom, params, psi: np.ndarray) -> np.ndarray:
    """H0 on a full Hilbert-space vector, streamed bond by bond."""
    return apply_bond_hamiltonian(geom.bonds, params.j, psi)


def grouped_apply(geom, params, drive, psi, b, group_bytes=1 << 16):
    """(H0 + b S) psi by the grouped kernel with coefficient rows.

    Couplings below the smallest normal float are dropped.  The z bonds
    sum into a real diagonal; the x and y bonds sum into one real row
    ``coupling * phase.real`` per distinct mask, in order of first
    appearance; the drive row is last, its real sign times the scalar b
    (-i)^(number of y).  The rows go into groups of at most
    ``group_bytes`` of complex gathered values, and each group is one
    gather, one multiply by its coefficient rows and one sum.
    """
    n = geom.n_sites
    dim = 2**n
    k = np.arange(dim)
    diag = np.zeros(dim)
    rows = {}
    for i, j, comp in geom.bonds:
        coupling = params.j(comp)
        if abs(coupling) < np.finfo(float).tiny:
            continue
        mask, phase = string_term(((i, comp), (j, comp)), n)
        if mask == 0:
            diag += coupling * phase.real
        else:
            rows[mask] = rows.get(mask, 0.0) + coupling * phase.real
    rows = list(rows.items())
    drive_scale = None
    if drive.kind == "custom" or drive.amplitude != 0.0:
        mask, phase = string_term(drive_string(geom, drive.plaquette), n)
        unit = complex(phase[0])
        rows.append((mask, (phase * unit.conjugate()).real))
        drive_scale = b * unit
    per_group = max(1, min(group_bytes // (16 * dim), len(rows)))
    out = diag * psi
    for start in range(0, len(rows), per_group):
        chunk = rows[start : start + per_group]
        idx = k ^ np.array([mask for mask, _ in chunk])[:, None]
        gathered = psi[idx]
        gathered *= np.array([row for _, row in chunk])
        if drive_scale is not None and start + per_group >= len(rows):
            gathered[-1] *= drive_scale
        out += gathered[0] if len(gathered) == 1 else np.add.reduce(gathered, axis=0)
    return out


def kron_string(n_sites, ops):
    """Dense Pauli string on distinct sites from explicit Kronecker
    products, site k on bit k; ops = [(site, component), ...]."""
    on_site = {site: PAULI[comp] for site, comp in ops}
    mat = np.eye(1, dtype=complex)
    for k in range(n_sites):
        mat = np.kron(on_site.get(k, np.eye(2, dtype=complex)), mat)
    return mat


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring: a / 2**s, of 1-norm at most 1/2, is
    exponentiated by its Taylor series to 18 terms (the rest is under
    1e-22 of it), then squared s times.  Matrix products only, so its
    error does not depend on how well a's eigenvectors are conditioned."""
    norm = float(np.linalg.norm(a, 1))
    s = max(0, math.ceil(math.log2(2.0 * norm))) if norm else 0
    x = a / 2**s
    term = np.eye(len(a), dtype=complex)
    out = term.copy()
    for k in range(1, 19):
        term = term @ x / k
        out += term
    for _ in range(s):
        out = out @ out
    return out


def dense_h0_kron(geom, params):
    """Dense H0 summed bond by bond from Kronecker products."""
    dim = 2**geom.n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for i, j, comp in geom.bonds:
        h += params.j(comp) * kron_string(geom.n_sites, ((i, comp), (j, comp)))
    return h


def hilbert_energy(geom, params, config, excitation=None) -> float:
    """<state| H0 |state> on the explicit 2^n product ket of the state."""
    ket = build_product_ket(geom, config, excitation)
    return float(np.vdot(ket, apply_h0(geom, params, ket)).real)


def hilbert_element(geom, ground, target, params, drive_plaquette=None) -> complex:
    """D <target| string |ground> on explicit 2^n product kets; the string
    acts on ``drive_plaquette``, by default the target's flipped plaquette."""
    if params.d == 0.0:
        return 0.0 + 0.0j
    q = target.flipped_plaquette if drive_plaquette is None else drive_plaquette
    driven = apply_pauli_string(build_product_ket(geom, ground), drive_string(geom, q))
    return params.d * complex(np.vdot(build_product_ket(geom, target.base, target), driven))


def loop_lattice(nx, ny):
    """(sublattice, bonds, plaquettes, site_plaquettes, owner,
    site_components) of the nx-by-ny torus, one cell at a time."""

    def site(ix, iy, s):
        return 2 * ((ix % nx) + nx * (iy % ny)) + s

    n_sites = 2 * nx * ny
    sublattice = tuple("A" if k % 2 == 0 else "B" for k in range(n_sites))
    bonds = []
    for comp in COMPONENTS:
        for iy in range(ny):
            for ix in range(nx):
                if comp == "z":
                    b = site(ix, iy, 1)
                elif comp == "x":
                    b = site(ix, iy - 1, 1)
                else:
                    b = site(ix + 1, iy - 1, 1)
                bonds.append((site(ix, iy, 0), b, comp))
    plaquettes = []
    for iy in range(ny):
        for ix in range(nx):
            plaquettes.append((
                site(ix, iy, 0), site(ix, iy, 1), site(ix, iy + 1, 0),
                site(ix + 1, iy, 1), site(ix + 1, iy, 0), site(ix + 1, iy - 1, 1),
            ))
    incidence = [[] for _ in range(n_sites)]
    for p, sites in enumerate(plaquettes):
        for pos, s in enumerate(sites):
            incidence[s].append((p, pos))
    site_plaquettes = tuple(tuple(sorted(inc)) for inc in incidence)
    owner = tuple(inc[0][0] for inc in site_plaquettes)
    site_components = tuple(PLAQUETTE_PATTERN[inc[0][1]] for inc in site_plaquettes)
    return sublattice, tuple(bonds), tuple(plaquettes), site_plaquettes, owner, site_components


def loop_signature(geom, config, excitation=None):
    """Per-site parity of flipped incident plaquettes, one site at a time."""
    signs = np.ones(geom.n_sites, dtype=np.int8)
    for s in range(geom.n_sites):
        if sum((config.bits >> p) & 1 for p in geom.site_plaquette_index[s].tolist()) % 2:
            signs[s] = -1
    if excitation is not None:
        s3 = geom.position3_site(excitation.flipped_plaquette)
        signs[s3] = -signs[s3]
    return signs


def loop_energy(geom, params, signs):
    """Left-to-right sum over the bonds whose endpoints carry its label."""
    comps = geom.site_components
    e = 0.0
    for i, j, bond_comp in geom.bonds:
        if comps[i] == comps[j] == bond_comp:
            e += params.j(bond_comp) * float(signs[i]) * float(signs[j])
    return e


def loop_element(geom, signs_g, signs_t, driven, d):
    """Site-by-site off-string check, then the product along the string."""
    string = drive_string(geom, driven)
    string_sites = {s for s, _ in string}
    for s in range(geom.n_sites):
        if s not in string_sites and signs_g[s] != signs_t[s]:
            return 0.0 + 0.0j
    val = complex(d)
    for s, op in string:
        bra = pauli_eigenvector(geom.site_components[s], int(signs_t[s]))
        ket = pauli_eigenvector(geom.site_components[s], int(signs_g[s]))
        # elementwise products and one add: np.vdot may fuse s*s - s*s into
        # an FMA and return the rounding error of s*s, about 2e-17, where
        # an orthogonal pair of eigenvectors gives exactly 0
        val *= complex(np.sum(bra.conj() * (PAULI[op] @ ket)))
        if val == 0.0:
            return 0.0 + 0.0j
    return val


def scan_connected_targets(geom, initial, drive_plaquette, engine="label"):
    """Every ``excite(initial, j)`` with a nonzero drive element from
    ``initial``, found by computing the element of each of the N
    candidates (O(N) work each, so O(N^2) in all).

    The label engine compares flip signatures and multiplies single-site
    elements; the hilbert engine takes the overlap of explicit kets.
    """
    candidates = [excite(initial, j) for j in range(geom.n_plaquettes)]
    string = drive_string(geom, drive_plaquette)
    if engine == "hilbert":
        driven = apply_pauli_string(build_product_ket(geom, initial), string)
        return [
            tg for tg in candidates
            if np.vdot(build_product_ket(geom, initial, tg), driven) != 0
        ]
    signs_g = flip_signature(geom, initial)
    return [
        tg for tg in candidates
        if loop_element(geom, signs_g, flip_signature(geom, initial, tg), drive_plaquette, 1.0) != 0
    ]


def loop_unwrap(values, singular) -> np.ndarray:
    """Minimal-jump continuation of arg c, one ``np.angle`` call per
    sample; singular samples hold 0.0 and the branch restarts after each."""
    two_pi = 2.0 * math.pi
    angle = np.zeros(len(values))
    prev = -1  # index of previous non-singular sample
    for k in range(len(values)):
        if singular[k]:
            continue
        raw = float(np.angle(values[k]))
        if prev == k - 1:
            angle[k] = raw + two_pi * round((angle[prev] - raw) / two_pi)
        else:
            angle[k] = raw
        prev = k
    return angle


def loop_slopes(phase) -> np.ndarray:
    """Finite-difference slope of a(t), sample by sample; NaN where not estimable."""
    t = phase.times
    a = phase.log_modulus
    ok = ~phase.singular
    n = len(t)
    slope = np.full(n, np.nan)
    for k in range(n):
        if not ok[k]:
            continue
        left = k - 1 if k - 1 >= 0 and ok[k - 1] else None
        right = k + 1 if k + 1 < n and ok[k + 1] else None
        if left is not None and right is not None:
            slope[k] = (a[right] - a[left]) / (t[right] - t[left])
        elif right is not None:
            slope[k] = (a[right] - a[k]) / (t[right] - t[k])
        elif left is not None:
            slope[k] = (a[k] - a[left]) / (t[k] - t[left])
    return slope


def loop_stability_intervals(phase) -> list[tuple[float, float, str]]:
    """Maximal runs of growing or decaying ln A, walked sample by sample."""
    ok = ~phase.singular
    if int(ok.sum()) < 3:
        raise ValueError("need at least 3 non-singular samples")
    slope_tol = 1e-9 * float(np.max(np.abs(phase.log_modulus[ok]))) + 1e-12

    slope = loop_slopes(phase)
    labels = np.zeros(len(slope), dtype=int)
    with np.errstate(invalid="ignore"):
        labels[slope > slope_tol] = 1
        labels[slope < -slope_tol] = -1
    labels[~ok] = 0
    labels[np.isnan(slope)] = 0

    intervals: list[tuple[float, float, str]] = []
    k = 0
    n = len(labels)
    while k < n:
        if labels[k] == 0:
            k += 1
            continue
        start = k
        while k + 1 < n and labels[k + 1] == labels[start]:
            k += 1
        name = "GROWING" if labels[start] > 0 else "DECAYING"
        intervals.append((float(phase.times[start]), float(phase.times[k]), name))
        k += 1
    return intervals


def loop_sweep_rows(times, omega0: float, m: complex, omegas) -> list[tuple]:
    """(omega, |c(t_max)|^2, omega0 - phi(t_max)/t_max) per omega, one
    closed-form series at a time, sorted by omega; phi is NaN where the
    last sample is singular."""
    k = len(times) - 1
    rows = []
    for omega in omegas:
        values = m * np.asarray(coefficient_closed_form(1, 1.0, omega0 - omega, times), dtype=complex)
        modulus = np.abs(values)
        peak = float(modulus.max())
        singular = modulus <= (1e-12 * peak if peak > 0 else math.inf)
        weight = float(np.abs(values[k]) ** 2)
        if singular[k]:
            predicted = float("nan")
        else:
            predicted = omega0 - float(loop_unwrap(values, singular)[k]) / float(times[k])
        rows.append((float(omega), weight, predicted))
    rows.sort(key=lambda r: r[0])
    return rows


def gram(ensemble) -> DensityMatrix:
    """K x K member Gram matrix G_kl = sqrt(p_k p_l) <psi_k|psi_l>.

    G = A^H A for the matrix A whose columns are sqrt(p_k) psi_k, while the
    mixture is rho = A A^H; so G has the trace, the purity and the nonzero
    spectrum of ``ensemble.density()`` without its 2**n x 2**n matrix.
    """
    # a = columns sqrt(p_k) psi_k; G = a^H a sums the projectors on the
    # conjugated rows of a
    a = np.array(ensemble.states).T * np.sqrt(ensemble.weights)
    return DensityMatrix(kets=a.conj(), weights=np.ones(len(a)))


def dense_mixture(weights, states) -> np.ndarray:
    """The dense mixture sum_k p_k |psi_k><psi_k|: a zero matrix to which
    each member's projector times its weight is added in member order."""
    dim = len(states[0])
    rho = np.zeros((dim, dim), dtype=complex)
    part = np.empty_like(rho)
    for p, psi in zip(weights, states):
        np.multiply.outer(psi, psi.conj(), out=part)
        part *= p
        rho += part
    return rho


def dense_density_payload(rho: DensityMatrix) -> dict:
    """``rho``'s payload over its whole basis: every label, ``dim`` and the
    row-major [re, im] entries of the dim x dim matrix."""
    if rho.weights is None:
        dense = np.outer(rho.kets[0], rho.kets[0].conj())
    else:
        dense = dense_mixture(rho.weights, rho.kets)
    if rho.labels is not None:
        basis = list(rho.labels)
    else:
        basis = [f"hilbert:{k}" for k in range(rho.dim)]
    return {"basis": basis, "dim": rho.dim, "entries": dense.reshape(-1).view(float).reshape(-1, 2)}


def reduced(ensemble, keep_sites) -> np.ndarray:
    """Reduced mixture sum_k p_k Tr_rest |psi_k><psi_k| on the kept sites."""
    return sum(
        p * reduced_density_matrix(psi, keep_sites)
        for p, psi in zip(ensemble.weights, ensemble.states)
    )


def loop_evolve_coefficients(geom, params, drive, initial, targets, times) -> list[CoefficientSeries]:
    """One CoefficientSeries per target, in order of (plaquette, base
    bits): energies keyed against ``initial`` in one energy_expectations
    call, the element a product of single-site elements from the initial
    flip signature, and each target's series computed on its own."""
    times = np.asarray(times, dtype=float)
    ordered = sorted(targets, key=lambda tg: (tg.flipped_plaquette, tg.base.bits))
    keys = [label_key(geom, initial, tg) for tg in ordered]
    e_init, *e_targets = energy_expectations(
        geom, params, initial, [frozenset()] + keys
    ).tolist()
    image = drive_image_sites(geom, drive.plaquette)
    element = 0.0 + 0.0j
    if drive.amplitude != 0.0:
        signs_g = flip_signature(geom, initial)
        element = complex(drive.amplitude)
        for s, op in drive_string(geom, drive.plaquette):
            sign = int(signs_g[s])
            element *= _single_site_element(
                geom.site_components[s], sign, -sign if s in image else sign, op
            )
    out = []
    for target, key, e_t in zip(ordered, keys, e_targets):
        m = element if key == image else 0.0
        if m == 0:
            values = np.zeros(len(times), dtype=complex)
        elif drive.kind == "exponential":
            delta = (e_t - e_init) - drive.omega
            values = m * np.asarray(coefficient_closed_form(1, 1.0, delta, times), dtype=complex)
        else:
            values = coefficient_interpolated(m, drive, e_t - e_init, times)
        out.append(CoefficientSeries(target=target, e_target=e_t, e_initial=e_init,
                                     times=times, values=values))
    return out


def _loop_blocks(rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Entry indices of each block of the pattern (rows, cols), blocks in
    increasing order of their union-find roots."""
    n_rows = int(rows.max()) + 1
    parent = list(range(n_rows + int(cols.max()) + 1))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in zip(rows.tolist(), cols.tolist()):
        parent[root(r)] = root(n_rows + c)
    roots = np.array([root(r) for r in rows.tolist()])
    order = np.argsort(roots, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(roots[order])) + 1)


def loop_schmidt_weights(rows, cols, values) -> np.ndarray:
    """schmidt_weights one block at a time: each block's rows and columns
    in increasing order, its entries scattered and its matrices decomposed
    on their own, the weights concatenated in block order."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    values = np.asarray(values, dtype=complex)
    flat = values.reshape(-1, values.shape[-1])
    out = []
    for entries in _loop_blocks(rows, cols):
        row_ids, r = np.unique(rows[entries], return_inverse=True)
        col_ids, c = np.unique(cols[entries], return_inverse=True)
        m = np.zeros((len(flat), len(row_ids), len(col_ids)), dtype=complex)
        np.add.at(m, (slice(None), r, c), flat[:, entries])
        out.append(np.linalg.svd(m, compute_uv=False) ** 2)
    return np.concatenate(out, axis=-1).reshape(values.shape[:-1] + (-1,))
