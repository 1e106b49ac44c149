"""Density matrices, sublattice entropy, thermal mixtures.

The evolved state lives in the active basis: the initial configuration
plus every excited label the drive connects to it at first order.  Its
density matrix has diagonal entries |c|^2 (phase-free) while each
off-diagonal entry carries the phase difference of the two states plus
their dynamical-phase mismatch; that structure is what makes the
coefficient phases observable.

Every label names a product ket over the same per-site Pauli eigenbases,
keyed by the sites where it differs from a reference configuration
(:func:`~kitaevsim.manifold.label_key`): equal keys are equal kets and
unequal keys orthogonal ones.  So the sublattice entropy of an evolved
state (:func:`sublattice_entropy`, keyed against its initial
configuration) and the trace, purity and entropies of a thermal mixture
of them (:func:`keyed_mixture`, keyed against one reference for all)
are squared singular values of small label-amplitude matrices
(:func:`schmidt_weights`), indexed by one pass that keys every label and
splits its key into A and B sites, with no 2**n_sites ket.  The mixture
itself, as ``thermal --emit-density`` writes it, is kept over that same
key basis (:func:`keyed_density`).  The 2**n forms
(:func:`embed_active_state`, :func:`reduced_entropy`,
:meth:`ThermalEnsemble.density`) stay for the acceptance checks, the
benchmark and the tests, under the Hilbert cap.

A :class:`DensityMatrix` is kept as its factors, rho = sum_k p_k
|psi_k><psi_k|: one amplitude vector for a pure state, or member kets and
their weights for a mixture.  Its payload is written over its support,
the basis states where some ket is nonzero: every entry outside it is
zero, so the payload lists the support's labels and the entries of the
support block only, each formed by the products the whole matrix would
take, a row at a time as ``output.write_json`` writes them, so neither
the block nor the dim x dim matrix is held.  ``matrix``, ``trace``,
``purity`` and ``diagnostics`` form the dim x dim matrix when asked, for
checks at small dim.

Entropy uses the natural logarithm, so a maximally mixed qubit pair
carries ln 2 per qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeGeometry
from .manifold import FlipConfig, build_product_ket, label_key
from .pauli import n_sites_of, require_hilbert
from .perturbation import CoefficientSeries

ENTROPY_EIGENVALUE_FLOOR = 1e-14

# the memory budget every size check holds a request to, in bytes: a
# density matrix's payload counts the [re, im] entries of its support
# block (16 * |support|**2), and a mixture over the full Hilbert basis
# 16 * dim**2 (the 2x3 torus's 256 MiB, the 2x4 torus's 64 GiB).  Evolve's
# support is the initial state and at most one connected target, and so
# is each thermal member's: its mixture has at most 2 keys per member
DENSE_DENSITY_BUDGET_BYTES = 1 << 30


def require_budget(nbytes: int, what: str) -> None:
    """Raise RuntimeError if ``nbytes`` is over the budget; the message is
    ``what``, the byte count and the budget."""
    if nbytes > DENSE_DENSITY_BUDGET_BYTES:
        raise RuntimeError(f"{what} {nbytes} bytes, over the budget of {DENSE_DENSITY_BUDGET_BYTES} bytes")


@dataclass
class DensityMatrix:
    """rho = sum_k p_k |psi_k><psi_k| as its factors: the rows of ``kets``
    and their ``weights``, with its basis labels (None = full Hilbert).

    ``weights`` None marks a pure state, one ket with rho_mn = psi_m
    conj(psi_n).
    """

    kets: np.ndarray
    weights: np.ndarray | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kets.ndim != 2 or (self.weights is None and len(self.kets) != 1):
            raise ValueError("kets must be a (K, dim) array, K = 1 when weights is None")

    @property
    def dim(self) -> int:
        return self.kets.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim matrix, formed on every call."""
        w = np.ones(1) if self.weights is None else self.weights
        return (self.kets.T * w) @ self.kets.conj()

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        m = self.matrix
        return float(np.trace(m @ m).real)

    def diagnostics(self, tol: float = 1e-10) -> list[str]:
        """Contract violations (empty list = healthy density matrix)."""
        issues = []
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            issues.append("not Hermitian to 1e-12")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > tol:
            issues.append(f"trace {trace} deviates from 1")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -1e-10:
            issues.append(f"negative eigenvalue {evals.min():.3e}")
        return issues

    def to_payload(self) -> dict:
        """JSON-ready form over the support: its basis labels, the full
        ``dim``, and the row-major [re, im] entries of the support block,
        an iterator of its rows (:meth:`_support_rows`)."""
        support = np.flatnonzero((self.kets != 0).any(axis=0))
        n = len(support)
        require_budget(16 * n * n, f"the {n}x{n} support block of the density matrix takes")
        if self.labels is not None:
            basis = [self.labels[k] for k in support.tolist()]
        else:
            basis = [f"hilbert:{k}" for k in support.tolist()]
        return {"basis": basis, "dim": self.dim, "entries": self._support_rows(support)}

    def _support_rows(self, support: np.ndarray):
        """The support block's [re, im] entries, one matrix row at a time
        as a (len(support), 2) float array, formed as asked.

        A pure state's entry is the product psi_m * conj(psi_n), as
        ``np.outer`` forms it; a mixture's starts at zero and adds
        psi_k,m conj(psi_k,n) * p_k member by member.  Each row's products
        are formed over the whole basis and then taken on the support: a
        complex product's last bit can depend on the length of the row it
        is formed in, and so each entry, the sign of a zero included, is
        that of the whole matrix built by the same products, all of whose
        other entries are zero.  A member whose (finite) ket is zero at the
        row's state is skipped: it would add signed zeros, and a sum
        started at +0.0 is never -0.0, so adding them changes no bit.  Each
        member's conjugate row is taken as its product needs it.
        """
        part = np.empty((1, self.dim), dtype=complex)
        for m in support.tolist():
            psi = self.kets[:, m:m + 1]
            if self.weights is None:
                row = np.outer(psi[0], self.kets[0].conj())[:, support]
            else:
                row = np.zeros((1, len(support)), dtype=complex)
                for k in np.flatnonzero(psi[:, 0]).tolist():
                    np.multiply.outer(psi[k], self.kets[k].conj(), out=part)
                    part *= self.weights[k]
                    row += part[:, support]
            yield row.reshape(-1).view(float).reshape(-1, 2)


@dataclass
class ActiveState:
    """Normalized active-basis amplitudes at one instant."""

    labels: tuple[str, ...]
    energies: np.ndarray
    amplitudes: np.ndarray
    norm_factor: float  # pre-normalization norm of the raw amplitudes


@dataclass
class ThermalEnsemble:
    """Weighted mixture of pure states over one basis."""

    states: list[np.ndarray]
    weights: np.ndarray

    def __post_init__(self) -> None:
        if not self.states or any(len(psi) != len(self.states[0]) for psi in self.states):
            raise ValueError("need one or more member states, all over one basis")

    def density(self) -> DensityMatrix:
        """The mixture rho = sum_k p_k |psi_k><psi_k| over the full basis,
        kept as the member kets and their weights."""
        dim = len(self.states[0])
        require_budget(16 * dim * dim, f"the {dim}x{dim} mixture density matrix's entries take")
        return DensityMatrix(kets=np.array(self.states), weights=np.asarray(self.weights))


def initial_label(config: FlipConfig) -> str:
    return f"cfg:{config.hex}"


def phased_amplitudes(e_initial: float, e_targets, values, t: float) -> tuple[np.ndarray, float]:
    """Normalized amplitudes of the first-order state at time t and their
    pre-normalization norm: exp(-i E t) for the initial label, then each
    target's first-order value at t times its exp(-i E t)."""
    amps = [np.exp(-1j * e_initial * t)]
    amps += [v * np.exp(-1j * e * t) for v, e in zip(values, e_targets)]
    raw = np.asarray(amps, dtype=complex)
    norm = float(np.linalg.norm(raw))
    return raw / norm, norm


def assemble_state(
    coeffs: list[CoefficientSeries], t: float, initial: FlipConfig
) -> ActiveState:
    """Evolved state at time t: zeroth-order initial plus first-order targets.

    Dynamical phases exp(-i E t) are applied to every amplitude and the
    vector is normalized (:func:`phased_amplitudes`); the pre-normalization
    norm is reported.
    """
    if not coeffs:
        raise ValueError("need at least one coefficient series")
    e_init = coeffs[0].e_initial
    for s in coeffs:
        if s.e_initial != e_init:
            raise ValueError("series disagree on the initial energy")
    k = coeffs[0].index_of(t)
    e_targets = [s.e_target for s in coeffs]
    amplitudes, norm = phased_amplitudes(e_init, e_targets, [s.values[k] for s in coeffs], t)
    return ActiveState(
        labels=(initial_label(initial), *(s.label for s in coeffs)),
        energies=np.asarray([e_init, *e_targets], dtype=float),
        amplitudes=amplitudes,
        norm_factor=norm,
    )


def density_matrix(state: ActiveState) -> DensityMatrix:
    """Pure-state density matrix rho_mn = amp_m * conj(amp_n) over its labels."""
    if not isinstance(state, ActiveState):
        raise TypeError(f"density_matrix takes an ActiveState, got {type(state).__name__}")
    amps = state.amplitudes
    if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
        raise ValueError("state must be normalized to 1e-10")
    return DensityMatrix(kets=amps[None, :], labels=state.labels)


def _sublattice_sites(geom: LatticeGeometry, part: str) -> list[int]:
    if part not in ("A", "B"):
        raise ValueError(f"sublattice must be 'A' or 'B', got {part!r}")
    return [k for k in range(geom.n_sites) if geom.sublattice[k] == part]


def _split_sites(psi: np.ndarray, keep_sites) -> np.ndarray:
    """A ket as the matrix whose rows run over the kept sites' basis and
    whose columns run over the other sites'.

    Site k of the ket lives on bit k of the basis index.
    """
    n = n_sites_of(psi)
    keep = list(keep_sites)
    if len(set(keep)) != len(keep) or any(not 0 <= s < n for s in keep):
        raise ValueError("keep_sites must be distinct sites of the ket")
    rest = [s for s in range(n) if s not in set(keep)]
    # axis j of the reshaped tensor is site n-1-j
    tensor = psi.reshape([2] * n)
    axes = [n - 1 - s for s in keep] + [n - 1 - s for s in rest]
    return np.transpose(tensor, axes).reshape(2 ** len(keep), 2 ** len(rest))


def reduced_density_matrix(psi: np.ndarray, keep_sites) -> np.ndarray:
    """Reduced density matrix of a pure ket on the kept sites."""
    block = _split_sites(psi, keep_sites)
    return block @ block.conj().T


def partial_trace_matrix(rho: np.ndarray, n_sites: int, keep_sites) -> np.ndarray:
    """Partial trace of a dense operator over the complement of keep_sites."""
    if rho.shape != (2**n_sites, 2**n_sites):
        raise ValueError("operator shape does not match n_sites")
    keep = list(keep_sites)
    rest = [s for s in range(n_sites) if s not in set(keep)]
    tensor = rho.reshape([2] * (2 * n_sites))
    # row axes: site n-1-s at axis n-1-s; column axes shifted by n_sites
    perm = (
        [n_sites - 1 - s for s in keep]
        + [n_sites - 1 - s for s in rest]
        + [2 * n_sites - 1 - s for s in keep]
        + [2 * n_sites - 1 - s for s in rest]
    )
    dk, dr = 2 ** len(keep), 2 ** len(rest)
    t = np.transpose(tensor, perm).reshape(dk, dr, dk, dr)
    return np.einsum("arbr->ab", t)


def entropy_of_density(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(lambda ln lambda) over the eigenvalues above
    ENTROPY_EIGENVALUE_FLOOR."""
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > ENTROPY_EIGENVALUE_FLOOR]
    return float(-np.sum(evals * np.log(evals)))


def reduced_entropy(
    geom: LatticeGeometry, full_ket: np.ndarray, part: str = "A"
) -> tuple[DensityMatrix, float]:
    """Partial trace onto one sublattice and its entanglement entropy."""
    require_hilbert(geom.n_sites)
    if len(full_ket) != 2**geom.n_sites:
        raise ValueError("ket dimension does not match the lattice")
    if abs(np.linalg.norm(full_ket) - 1.0) > 1e-9:
        raise ValueError("ket must be normalized")
    keep = _sublattice_sites(geom, part)
    block = _split_sites(full_ket, keep)
    s = entropy_of_density(block @ block.conj().T)
    labels = tuple(f"{part}{k}" for k in range(2 ** len(keep)))
    # the reduced matrix is the sum of the projectors on block's columns
    return DensityMatrix(kets=block.T, weights=np.ones(block.shape[1]), labels=labels), s


def _block_ids(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each entry's block of the pattern (rows, cols), a block being a
    connected component of the graph joining each entry's row and column;
    blocks are numbered in increasing order of their union-find roots."""
    n_rows = int(rows.max()) + 1
    parent = list(range(n_rows + int(cols.max()) + 1))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in zip(rows.tolist(), cols.tolist()):
        parent[root(r)] = root(n_rows + c)
    roots = [root(r) for r in rows.tolist()]
    number = {x: b for b, x in enumerate(sorted(set(roots)))}
    return np.array([number[x] for x in roots], dtype=np.intp)


def _starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts."""
    new = np.empty(len(sorted_keys), dtype=bool)
    new[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    return new


def _local_index(block: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's index among the distinct ``ids`` of its block, in
    increasing order, and each block's count of distinct ids."""
    order = np.lexsort((ids, block))
    b = block[order]
    block_start = _starts(b)
    # the distinct (block, id) pairs in sorted order, numbered from 0
    distinct = np.cumsum(block_start | _starts(ids[order])) - 1
    # blocks are numbered 0, 1, ... with no gap, so each starts once
    first = distinct[block_start]
    local = np.empty(len(order), dtype=np.intp)
    local[order] = distinct - first[b]
    return local, np.append(first[1:], distinct[-1] + 1) - first


def schmidt_weights(rows, cols, values) -> np.ndarray:
    """Squared singular values of the matrix M that sums ``values[..., e]``
    at (rows[e], cols[e]); leading axes of ``values`` give one M each.

    M is decomposed by blocks, a block being rows and columns that share
    no entry with the rest, so the cost follows the blocks rather than M's
    shape.  Blocks of one shape are built with one scatter and decomposed
    with one stacked SVD, each block with its rows and columns in
    increasing order and repeated entries summed in order.  The last axis
    holds every block's weights, min(rows, columns) of them per block, in
    block order (:func:`_block_ids`).
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    values = np.asarray(values, dtype=complex)
    flat = values.reshape(-1, values.shape[-1])
    block = _block_ids(rows, cols)
    r, n_r = _local_index(block, rows)
    c, n_c = _local_index(block, cols)
    k = np.minimum(n_r, n_c)
    offset = np.cumsum(k) - k
    out = np.empty((len(flat), int(k.sum())))
    # each block's place in the stack of its shape
    shape = n_r * (int(n_c.max()) + 1) + n_c
    slot = np.empty(len(k), dtype=np.intp)
    for code in set(shape.tolist()):
        same = np.flatnonzero(shape == code)
        slot[same] = np.arange(len(same))
        entries = np.flatnonzero(shape[block] == code)
        m = np.zeros((len(same), len(flat), n_r[same[0]], n_c[same[0]]), dtype=complex)
        np.add.at(m, (slot[block[entries]], slice(None), r[entries], c[entries]), flat[:, entries].T)
        weights = np.linalg.svd(m, compute_uv=False) ** 2
        out[:, offset[same][:, None] + np.arange(k[same[0]])] = weights.transpose(1, 0, 2)
    return out.reshape(values.shape[:-1] + (-1,))


def _weights_entropy(p: np.ndarray) -> np.ndarray:
    """-sum p ln p over the last axis.  Weights at or below the floor add
    p * ln 1 = 0, as in entropy_of_density; + 0.0 turns a sum's -0.0 into
    0.0."""
    logs = np.log(np.where(p > ENTROPY_EIGENVALUE_FLOOR, p, 1.0))
    return -np.sum(p * logs, axis=-1) + 0.0


def _keyed_indices(geom: LatticeGeometry, keys) -> np.ndarray:
    """Four index rows with one column per key of ``keys`` (a key list per
    member, in order): the key's member, the key, its A sites, and the
    pair of its member and its B sites, each numbered in order of first
    appearance."""
    numbers, a_parts, kb_pairs = {}, {}, {}
    index = []
    for k, member_keys in enumerate(keys):
        for key in member_keys:
            on_a = frozenset(s for s in key if geom.sublattice[s] == "A")
            index.append((
                k,
                numbers.setdefault(key, len(numbers)),
                a_parts.setdefault(on_a, len(a_parts)),
                kb_pairs.setdefault((k, key - on_a), len(kb_pairs)),
            ))
    return np.array(index, dtype=np.intp).T


def sublattice_entropy(
    geom: LatticeGeometry, initial: FlipConfig, coeffs: list[CoefficientSeries]
) -> np.ndarray:
    """S_A of the first-order state at every sample time of ``coeffs``,
    with no 2**n_sites ket.

    Every label is a product over the same per-site Pauli eigenbases, so
    the A parts of two labels are equal or orthogonal, and so are their B
    parts.  Splitting each label's key against ``initial``
    (:func:`~kitaevsim.manifold.label_key`) into its A and B sites writes
    the state as sum M[a, b] |a>|b> with orthonormal |a> and |b>; S_A is
    the entropy of M's squared singular values over their sum, exactly 0.0
    when M has one row or one column.  The amplitudes carry the dynamical
    phases of :func:`assemble_state`.
    """
    if not coeffs:
        raise ValueError("need at least one coefficient series")
    e_init = coeffs[0].e_initial
    if any(s.e_initial != e_init for s in coeffs):
        raise ValueError("series disagree on the initial energy")
    times = coeffs[0].times

    # row and column of M for the initial label, then for each target
    labels = [initial] + [s.target for s in coeffs]
    _, _, row, col = _keyed_indices(geom, [[label_key(geom, initial, label) for label in labels]])
    if not (row.any() and col.any()):
        return np.zeros(len(times))

    amps = np.empty((len(times), len(coeffs) + 1), dtype=complex)
    amps[:, 0] = np.exp(-1j * e_init * times)
    for k, s in enumerate(coeffs, 1):
        amps[:, k] = s.values * np.exp(-1j * s.e_target * times)
    weights = schmidt_weights(row, col, amps)
    return _weights_entropy(weights / weights.sum(axis=-1, keepdims=True))


def keyed_mixture(geom: LatticeGeometry, keys, amps, weights) -> dict[str, float]:
    """Trace, purity, entropy and S_A of the mixture sum_k p_k |psi_k><psi_k|,
    with no 2**n_sites ket.

    ``keys`` yields, member by member, the keys of the member's labels
    (:func:`~kitaevsim.manifold.label_key`), all against one reference, so
    equal kets share a key whichever members hold them; ``amps[k]`` holds
    member k's amplitudes on those kets, as :func:`assemble_state` orders
    them.

    With X[k, key] = sqrt(p_k) * amplitude the mixture is X^T conj(X) in
    the orthonormal key basis, so its nonzero spectrum is X's squared
    singular values; that of the reduced mixture on A comes from
    V[a, (k, b)] = sqrt(p_k) M_k[a, b], member k's Schmidt matrix M_k as in
    :func:`sublattice_entropy`, for every k side by side.
    """
    member, key_col, a_row, kb_col = _keyed_indices(geom, keys)
    values = np.concatenate([math.sqrt(p) * np.asarray(a) for a, p in zip(amps, weights)])
    w_mix = schmidt_weights(member, key_col, values)
    w_a = schmidt_weights(a_row, kb_col, values)
    return {
        "trace": float(np.sum(w_mix)),
        "purity": float(np.sum(w_mix**2)),
        "mixture_entropy": float(_weights_entropy(w_mix)),
        "sublattice_entropy": float(_weights_entropy(w_a)),
    }


def keyed_density(geom: LatticeGeometry, keys, amps, weights, names) -> DensityMatrix:
    """The mixture sum_k p_k |psi_k><psi_k| over the orthonormal basis of
    its members' keys, with no 2**n_sites ket.

    ``keys`` and ``amps`` are as for :func:`keyed_mixture`, and ``names``
    yields, member by member, the labels of those keys.  The keys are
    numbered in order of first appearance (:func:`_keyed_indices`), row k
    of the kets holds member k's amplitudes at its keys' numbers, and each
    key is named by the first label that holds it.
    """
    member, key_col, _, _ = _keyed_indices(geom, keys)
    kets = np.zeros((len(amps), int(key_col.max()) + 1), dtype=complex)
    kets[member, key_col] = np.concatenate(amps)
    first = {}
    for k, name in zip(key_col.tolist(), (name for member_names in names for name in member_names)):
        first.setdefault(k, name)
    return DensityMatrix(kets, np.asarray(weights), tuple(first.values()))


def embed_active_state(
    geom: LatticeGeometry,
    initial: FlipConfig,
    targets,
    state: ActiveState,
) -> np.ndarray:
    """Lift active-basis amplitudes to the full 2**n_sites Hilbert space.

    ``targets`` must list the excited labels in the same order as the
    coefficient series used to assemble ``state``.
    """
    targets = list(targets)
    if len(state.amplitudes) != len(targets) + 1:
        raise ValueError("state and target list are inconsistent")
    psi = state.amplitudes[0] * build_product_ket(geom, initial)
    for amp, target in zip(state.amplitudes[1:], targets):
        psi = psi + amp * build_product_ket(geom, target.base, target)
    return psi


def thermal_weights(energies, kt: float) -> np.ndarray:
    """Normalized Boltzmann weights at temperature kt (hbar = k_B = 1).

    kt = 0 resolves to uniform weights over the minimal-energy subset;
    kt = inf gives uniform weights.
    """
    e = np.asarray(energies, dtype=float)
    if len(e) == 0:
        raise ValueError("empty member list")
    if kt < 0 or math.isnan(kt):
        raise ValueError(f"temperature must be >= 0, got {kt}")

    if math.isinf(kt):
        w = np.ones(len(e))
    elif kt == 0.0:
        scale = 1.0 + abs(float(e.min()))
        w = (e <= e.min() + 1e-12 * scale).astype(float)
    else:
        w = np.exp(-(e - e.min()) / kt)  # max-shift keeps exponents <= 0
    return w / w.sum()
