"""Ground-truth engine: exact time evolution in the full Hilbert space.

Integrates i d/dt psi = (H0 + B(t) S) psi with the fourth-order
commutator-free Magnus integrator CF4 (two exponentials per step, each
a Taylor series truncated under a bound on its remainder) under
windowed Richardson step control: the output intervals are taken in
windows of two equal intervals where they can be (one interval where
they cannot), and each window is refined on its own, from the ket
accepted at its start, until the step-doubling estimate of its error
fits its share of the tolerance (Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.4).  One Richardson pair per two
intervals costs 1.5 CF4 steps per interval at the least, against 3 for
a pair per interval.  An undriven run takes no pairs: CF4 is exact for
an autonomous H0, so a coarse pass would measure only the truncation of
the exponentials, which their bounds already give, and the run is one
pass of one step per output interval.  The generator's tables are
compiled once per lattice, couplings, drive plaquette and driven-ness,
and kept for the next run of that key, so a scan over the drive's
amplitude or frequency compiles once.  The fixed-step core is exposed
so convergence order can be measured directly by step halving.

Note the exponential drive B(t) = D exp(-i omega t) multiplies a
Hermitian Pauli string by a complex scalar, so the driven generator is
not Hermitian and the exact norm is conserved only at D = 0.  Norm
drift is therefore recorded for every run but enforced only for
undriven (unitary) evolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import CouplingParams, drive_string, h0_bonds
from .lattice import COMPONENTS, LatticeGeometry
from .pauli import require_hilbert, string_term
from .perturbation import CoefficientSeries, DriveSpec

# CF4 steps one exact_evolve may take over all its passes
_MAX_TOTAL_STEPS = 1 << 22
# largest factor by which one estimate may raise the substep count
_MAX_GROWTH = 16


@dataclass
class EvolutionResult:
    times: np.ndarray
    kets: list[np.ndarray]
    norm_drift: float
    energy_drift: float | None  # only meaningful for D = 0 runs
    # accepted CF4 substeps per output interval (per piece for a custom
    # drive), >= 1; both intervals of a window share one count, which
    # may be odd, and a one-interval window's count is even
    substeps: tuple[int, ...]
    # sum of the accepted windows' Richardson and truncation bounds
    error_estimate: float
    # CF4 steps over every pass, rejected ones included
    cf4_steps: int
    krylov_error: float  # the truncation-bound part of error_estimate
    # generator matvecs over every pass, rejected ones included
    matvecs: int


@dataclass
class TdptErrorReport:
    """Exact-vs-first-order coefficient comparison.

    ``overall_max_error`` is the maximum over the whole ansatz: target
    coefficients against their first-order series and the initial state
    against its zeroth-order amplitude one.  The initial-state depletion
    is the generic second-order effect, so it is what makes the overall
    error scale as the square of the drive amplitude.
    """

    labels: list[str]
    max_error: dict[str, float]       # per target label
    initial_deviation: float          # max |c_exact,initial - 1|
    overall_max_error: float


# 4th-order commutator-free Magnus step CF4 (Alvermann & Fehske, J. Comput.
# Phys. 230, 5930 (2011)): exp(-i h/2 (H0 + b2 S)) exp(-i h/2 (H0 + b1 S)),
# with b1,2 = m0 -/+ 4 m1 from the moments m0 = <B>, m1 = <(t - t_mid) B> / h
# of the drive over the step (Gauss points give the original scheme)
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
# largest norm bound theta = |scale| ||M|| tau of one Taylor sub-step.  A
# 2x3 correlation scan took 1.56x the matvecs at 1 and 2 % fewer at 3 or
# 4, while the series' rounding may grow by e^theta ulps
_THETA = 2.0
# Taylor sub-steps one exponential may take before it gives up
_MAX_SUB_STEPS = 128
# terms one sub-step may sum before it gives up: at theta <= 2 the 64th
# is below 2^64 / 64! ~ 1e-70 of the vector
_MAX_TAYLOR_TERMS = 64
# truncation bound allowed per unit time when no run has set it
_KRYLOV_TOL = 1e-14
# exact_evolve's share of its tolerance for the truncation bounds
_KRYLOV_SHARE = 1.0 / 64.0

# OpenBLAS hands a dot of more than 10000 elements to its worker threads.
# Waking them has cost some processes milliseconds per call (with two
# threads, a 65536-element dot took 0.43 ms instead of 0.06 ms in
# 8192-element pieces), so every inner product of kets is cut into calls
# below that limit.
_DOT_ELEMENTS = 8192


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> of two kets, in dots of at most ``_DOT_ELEMENTS`` elements."""
    if len(a) <= _DOT_ELEMENTS:
        return complex(np.vdot(a, b))
    return complex(sum(np.vdot(a[i : i + _DOT_ELEMENTS], b[i : i + _DOT_ELEMENTS])
                       for i in range(0, len(a), _DOT_ELEMENTS)))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_vdot(a, a).real)


def expv(
    apply, v: np.ndarray, scale: complex, tol: float, bound: float, growth: float
) -> tuple[np.ndarray, float]:
    """exp(scale * M) v by a truncated Taylor series, where ``apply(x)``
    returns M x as a new vector, ``bound`` >= ||M||, and ``growth`` >= the
    largest eigenvalue of the Hermitian part of scale * M.

    The unit interval is cut into s = ceil(|scale| bound / 2) equal
    sub-steps tau, so that theta = |scale| bound tau <= 2 on each.  A
    sub-step sums the terms t_k = (tau scale M)^k w / k!, one matvec
    each, and stops at the first k with k + 1 > theta and
    ||t_k|| theta / (k + 1 - theta) <= tol * tau: since ||t_(j+1)|| <=
    ||t_j|| theta / (j + 1), that is a bound on the norm of every term
    left out (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
    The sub-steps after sub-step j carry its error through
    exp((s - 1 - j) tau scale M), whose 2-norm is at most
    exp(growth (s - 1 - j) / s) (the logarithmic norm bound), so its
    bound is counted, in the stopping test and in the sum, times that
    factor: with a complex drive value exp(scale * M) is no contraction.

    Returns the vector and the summed bounds (<= tol); when the
    exponential needs more than ``_MAX_SUB_STEPS`` sub-steps or a
    sub-step more than ``_MAX_TAYLOR_TERMS`` terms, or a term turns
    non-finite, the vector is NaN and the estimate inf.
    """
    w = np.asarray(v, dtype=complex)
    theta = abs(scale) * bound
    subs = max(1, math.ceil(theta / _THETA)) if math.isfinite(theta) else math.inf
    if subs > _MAX_SUB_STEPS:
        return np.full_like(w, np.nan), math.inf
    theta /= subs
    factor = scale / subs
    err = 0.0
    for j in range(subs):
        carried = math.exp(growth * (subs - 1 - j) / subs)
        term, total = w, w.copy()
        for k in range(_MAX_TAYLOR_TERMS + 1):
            if k:
                term = apply(term)
                term *= factor / k
                total += term
            size = _norm(term)
            if not math.isfinite(size):
                return np.full_like(w, np.nan), math.inf
            rest = size * theta / (k + 1 - theta) * carried if k + 1 > theta else math.inf
            if rest <= tol / subs:
                break
        else:
            return np.full_like(w, np.nan), math.inf
        w = total
        err += rest
    return w, err


def _magnus_moments(drive: DriveSpec, t: float, h: float) -> tuple[complex, complex]:
    """m0 = (1/h) int B and m1 = (1/h^2) int (t' - t_mid) B over [t, t + h].

    Closed form for the exponential drive; two Gauss points for a custom
    drive, exact because its linear interpolation is one line on every
    step that ends on its samples.
    """
    t_mid = t + 0.5 * h
    if drive.kind == "exponential":
        x = 0.5 * drive.omega * h
        # sin(x) / x and (sin x - x cos x) / x^2, by series near x = 0
        if abs(x) < 0.1:
            x2 = x * x
            sinc = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2**3 / 5040.0
            odd = x * (1.0 / 3.0 - x2 / 30.0 + x2 * x2 / 840.0 - x2**3 / 45360.0)
        else:
            sinc = math.sin(x) / x
            odd = (math.sin(x) - x * math.cos(x)) / (x * x)
        b_mid = drive.amplitude * complex(math.cos(drive.omega * t_mid), -math.sin(drive.omega * t_mid))
        return b_mid * sinc, -0.5j * odd * b_mid
    b1, b2 = drive.b_of(np.array([t_mid - _GAUSS_OFFSET * h, t_mid + _GAUSS_OFFSET * h]))
    return 0.5 * (b1 + b2), 0.5 * _GAUSS_OFFSET * (b2 - b1)


# bytes of the (rows + 1) x C complex buffer that one output chunk of a
# matvec gathers into and sums: C = 256 (one chunk) at 2x2, 2048 at 2x3
# and 1024 at 2x4.  Timed per matvec at 256 KiB, 512 KiB and 1 MiB on
# 2x2, 2x3 and 2x4 (2-core Xeon, 2 MiB L2 a core, best of seven, runs
# interleaved): 2x2 is one chunk at each; at 2x3 one chunk of 4096 (1 MiB)
# took 103-112 us against 87-104 us in two or four chunks; at 2x4 all
# three took 2.4-3.2 ms, level within the noise, and 2 MiB 3.0 ms, its
# chunk no longer in L2.  512 KiB makes half the calls of 256 KiB.
_CHUNK_BYTES = 1 << 19


def _chunk_size(rows: int, dim: int) -> int:
    """Indices C per output chunk of a matvec that gathers ``rows`` rows:
    the largest power of two, at most ``dim``, whose (rows + 1) x C
    buffer fits ``_CHUNK_BYTES``.  C is at least 2: numpy sums a single
    column (C = 1) pairwise, out of bond order."""
    fit = _CHUNK_BYTES // (16 * (rows + 1))
    return min(dim, 1 << max(1, fit.bit_length() - 1))


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry of a non-negative int array."""
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


@dataclass(frozen=True)
class _Compiled:
    """The parts of a :class:`_Generator` that depend only on its key and
    that no run writes: the read-only diagonal and index ``table``, the
    output ``chunks`` as (slice, diagonal, indices) views of their
    memory, and the signed scale of each source block (a bond's +-|J|,
    or the drive's "+b" or "-b"), in order of first use."""

    diag: np.ndarray
    table: np.ndarray
    chunk: int
    chunks: tuple
    h0_bound: float
    drive_unit: complex | None
    blocks: tuple


# the last compile, as (key, _Compiled): one lattice's tables at a time
_compiled: tuple | None = None


def _compile(geom: LatticeGeometry, params: CouplingParams, drive: DriveSpec, driven: bool) -> _Compiled:
    """The compiled parts of H0 + b S, reused while the key, every input
    that the compile reads, stays the same."""
    global _compiled
    # a subnormal coupling adds nothing next to a normal one, yet would
    # slow every matvec with subnormal arithmetic
    tiny = np.finfo(float).tiny
    params = replace(params, **{f"j{c}": 0.0 for c in COMPONENTS if abs(params.j(c)) < tiny})
    string = drive_string(geom, drive.plaquette) if driven else None
    key = (geom.n_sites, geom.bonds, string, tuple(params.j(c) for c in COMPONENTS), _CHUNK_BYTES)
    if _compiled is not None and _compiled[0] == key:
        return _compiled[1]
    # the old tables go before the new ones are built
    _compiled = None
    compiled = _compile_tables(geom.n_sites, list(h0_bonds(geom, params)), string)
    _compiled = (key, compiled)
    return compiled


def _compile_tables(n: int, bonds: list, string) -> _Compiled:
    """The diagonal and index table of the bond rules of :func:`h0_bonds`
    plus the drive ``string`` (None when undriven), in array passes.

    Every row, and every bond's sign, is a function of the output index
    k whose parts split over k = hi * L + lo, L = 2^s about sqrt(dim):
    k ^ mask is (hi ^ mask_hi) L + (lo ^ mask_lo), and the parity of k's
    bits on a set is that of hi's bits xor that of lo's.  So a row is a
    per-hi offset plus one of two per-lo vectors, chosen by hi's parity,
    and the whole table is one gather and one add.  A z bond's sign is
    one bit of a pattern that splits the same way; the diagonal's value
    at each pattern is summed over the z bonds in bond order, as their
    terms would be at k, and the diagonal is gathered from those sums.
    Only the patterns are ket-sized (a torus has one z bond a site, so
    there are sqrt(dim) of them).
    """
    dim = 1 << n
    rules = []  # (mask, sign bits, parity where -, + scale, - scale)
    z_bonds = []  # (J, sign bits, parity where -J)
    for i, j, mask, coupling, negative in bonds:
        bits = (1 << i) | (1 << j)
        if mask == 0:
            z_bonds.append((coupling, bits, negative))
            continue
        # an entry +-J goes to the block of -|J| where it is negative
        flip = int(coupling < 0.0)
        rule = (0, 1 - flip) if negative is None else (bits, negative ^ flip)
        rules.append((mask, *rule, abs(coupling), -abs(coupling)))
    row_sum = sum(rule[3] for rule in rules)
    drive_unit = None
    if string is not None:
        # string_term on the string's own six sites: its constant is the
        # phase at k = 0, where every sign is +1, and its real sign the
        # parity of the sites whose set bit alone makes it negative
        local_mask, phase = string_term([(a, comp) for a, (_, comp) in enumerate(string)], len(string))
        drive_unit = complex(phase[0])
        negative = (phase * drive_unit.conjugate()).real < 0.0
        mask = sum(1 << site for a, (site, _) in enumerate(string) if local_mask >> a & 1)
        bits = sum(1 << site for a, (site, _) in enumerate(string) if negative[1 << a])
        rules.append((mask, bits, 1, "+b", "-b"))
    rows = len(rules)
    chunk = _chunk_size(rows, dim)
    s = min(chunk.bit_length() - 1, (n + 1) // 2)
    hi = np.arange(dim >> s) << s
    lo = np.arange(1 << s)

    z_bits = np.array([bits for _, bits, _ in z_bonds], dtype=np.intp)
    weights = np.left_shift(1, np.arange(len(z_bonds)), dtype=np.intp)
    # bit b of a pattern is set where z bond b is -J
    where_odd = np.array([negative for _, _, negative in z_bonds], dtype=np.intp)
    pattern_hi = ((_parity(hi[:, None] & z_bits) ^ where_odd ^ 1) * weights).sum(axis=1, dtype=np.intp)
    pattern_lo = (_parity(lo[:, None] & z_bits) * weights).sum(axis=1, dtype=np.intp)
    patterns = np.arange(1 << len(z_bonds))
    values = np.zeros(len(patterns))
    for b, (coupling, _, _) in enumerate(z_bonds):
        values += np.where(patterns >> b & 1, -coupling, coupling)
    # the patterns that occur: every pair of a high and a low part
    seen_hi, seen_lo = np.zeros((2, len(patterns)), dtype=bool)
    seen_hi[pattern_hi] = seen_lo[pattern_lo] = True
    seen = np.flatnonzero(seen_hi)[:, None] ^ np.flatnonzero(seen_lo)
    h0_bound = float(np.max(np.abs(values[seen]))) + row_sum
    diag = np.empty(dim, dtype=complex)
    np.take(values.astype(complex), pattern_hi[:, None] ^ pattern_lo, out=diag.reshape(-1, len(lo)), mode="wrap")

    # entry k of row r is (k ^ mask) + dim * (the block of its signed
    # scale): the block of + where both occur and k is not negative
    blocks: dict = {}
    first, step = np.zeros((2, rows), dtype=np.intp)
    for r, (_, bits, negative, plus, minus) in enumerate(rules):
        used = [key for key, use in ((plus, bits or negative), (minus, bits or not negative)) if use]
        ids = [blocks.setdefault(key, len(blocks)) for key in used]
        first[r], step[r] = ids[0], ids[-1] - ids[0]
    masks, bits, negative = (np.array([rule[i] for rule in rules], dtype=np.intp) for i in range(3))
    offsets = (hi[:, None] ^ (masks & -len(lo))) + dim * first
    choice = 2 * np.arange(rows) + _parity(hi[:, None] & bits)
    # where hi's parity is p, an entry is negative where p ^ (lo's
    # parity) is ``negative``
    lo_negative = (_parity(lo & bits[:, None])[:, None] ^ np.array([[0], [1]])) == negative[:, None, None]
    low_rows = (lo ^ (masks & (len(lo) - 1))[:, None])[:, None] + (dim * step)[:, None, None] * lo_negative
    # chunk-major: table[c] holds every row's indices for output chunk c
    table = np.empty((dim // chunk, rows, chunk), dtype=np.intp)
    if rows:
        # each chunk split at L: table[c, r, q, lo] has hi = c * chunk / L + q
        quads = table.reshape(dim // chunk, rows, chunk >> s, len(lo))
        per_chunk = (dim // chunk, chunk >> s, rows)
        np.take(low_rows.reshape(2 * rows, -1), choice.reshape(per_chunk).transpose(0, 2, 1),
                axis=0, out=quads, mode="wrap")
        quads += offsets.reshape(per_chunk).transpose(0, 2, 1)[..., None]
    diag.flags.writeable = False
    # the matvec's index views stay views of the writable table: take
    # copies a read-only index array on every call (a 17 x 1024 chunk's
    # gather took 23 us instead of 17 us); only the held table is locked
    chunks = tuple((slice(i * chunk, (i + 1) * chunk), diag[i * chunk : (i + 1) * chunk], idx)
                   for i, idx in enumerate(table))
    locked = table.view()
    locked.flags.writeable = False
    return _Compiled(diag, locked, chunk, chunks, h0_bound, drive_unit, tuple(blocks))


class _Generator:
    """H(t) = H0 + B(t) S compiled for one lattice, couplings and drive.

    Every Pauli string acts as ``phase[k] * psi[k ^ mask]``
    (:func:`string_term`), and every phase of H0 and S is a real sign
    times one constant.  Of the bond rules of :func:`h0_bonds`, the z
    bonds sum into one diagonal, stored complex so that ``diag * psi``
    needs no cast.  An x or y bond's entries are +-|J|, and the drive
    string's are +-b times the constant (-i)^(number of y).  A matvec
    first writes the source table ``src[s] = psi * scales[s]`` in one
    broadcast multiply, one block per signed scale that occurs: the
    bonds' +-|J| and the drive's +-b times its constant, which
    :meth:`set_drive` writes once per exponential.  Each x and y bond,
    in bond order, and then S is one index row, ``(k ^ mask) + dim * s``
    into the block s of its sign at k, so no coefficient row is stored.
    The rows are held chunk-major, ``table[c]`` being every row's
    indices for output chunk c of ``chunk`` indices (:func:`_chunk_size`).
    For each chunk a matvec writes diag * psi into row 0 of one reused
    (rows + 1) x chunk buffer, gathers every row into the rest with one
    ``take``, and sums the buffer down its rows into the output: the
    diagonal first, then the rows in order.  Those are the products and
    the sums of coefficient rows +-J added one at a time, so the result
    equals theirs bit for bit, up to the sign of zero.  A torus of
    nx, ny >= 2 has no two bonds on one site pair, so no two rows share a
    mask.
    The diagonal, the index table and the block scales are compiled once
    per key (:func:`_compile`) and shared, read-only, by every generator
    of that key; ``scales``, ``src`` and ``buf``, which a matvec writes,
    are each generator's own.
    ``bound`` = max|diag| + sum |J| over the x and y rows, plus |b| once
    :meth:`set_drive` has set b, is the largest absolute row sum of
    H0 + b S.  H0 is Hermitian and S a permutation with unit phases, so
    it is the largest column sum too, and so bounds the 2-norm that
    :func:`expv` needs.  :meth:`step` takes one CF4 step.
    ``krylov_tol`` is the truncation bound each step may spend per unit
    time, ``krylov_error`` sums the truncation bounds of every
    exponential taken, and ``matvecs`` counts the matvecs.
    """

    def __init__(self, geom: LatticeGeometry, params: CouplingParams, drive: DriveSpec):
        self.drive = drive
        self.driven = drive.kind == "custom" or drive.amplitude != 0.0
        compiled = _compile(geom, params, drive, self.driven)
        self.diag, self.table = compiled.diag, compiled.table
        self.chunk, self.chunks = compiled.chunk, compiled.chunks
        self.h0_bound = self.bound = compiled.h0_bound
        self.drive_unit = compiled.drive_unit
        blocks = compiled.blocks
        # one column of scales; set_drive writes the drive's
        self.scales = np.array([0.0 if key in ("+b", "-b") else key for key in blocks], dtype=complex)[:, None]
        self.drive_blocks = [(blocks.index(key), key == "-b") for key in ("+b", "-b") if key in blocks]
        # psi times every signed scale, written once per matvec
        self.src = np.empty((len(blocks), len(self.diag)), dtype=complex)
        # row 0 takes diag * psi, the rest the chunk's gathered rows
        self.buf = np.empty((self.table.shape[1] + 1, self.chunk), dtype=complex)
        self.krylov_tol = _KRYLOV_TOL
        self.krylov_error = 0.0
        self.matvecs = 0

    def set_drive(self, b: complex) -> None:
        """Set the drive value b of the matvecs that follow."""
        if self.driven:
            scale = b * self.drive_unit
            for block, negative in self.drive_blocks:
                self.scales[block] = -scale if negative else scale
            self.bound = self.h0_bound + abs(b)

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        """(H0 + b S) psi, with b from the last :meth:`set_drive`."""
        self.matvecs += 1
        # psi first: with FMA, a complex product's bits depend on the order
        np.multiply(psi, self.scales, out=self.src)
        src = self.src.reshape(-1)
        out = np.empty(len(psi), dtype=complex)
        buf = self.buf
        head, rows = buf[0], buf[1:]
        for chunk, diag, idx in self.chunks:
            np.multiply(diag, psi[chunk], out=head)
            # every index is in range; the default mode="raise" would
            # gather into a temporary and copy it to buf
            src.take(idx, out=rows, mode="wrap")
            np.add.reduce(buf, axis=0, out=out[chunk])
        return out

    def apply(self, psi: np.ndarray, b: complex) -> np.ndarray:
        """(H0 + b S) psi."""
        self.set_drive(b)
        return self.matvec(psi)

    def step(self, psi: np.ndarray, t: float, h: float) -> np.ndarray:
        """One CF4 step of size h from t."""
        m0, m1 = _magnus_moments(self.drive, t, h) if self.driven else (0.0, 0.0)
        tol = self.krylov_tol * 0.5 * h
        for b in (m0 - 4.0 * m1, m0 + 4.0 * m1):
            self.set_drive(b)
            # -0.5i h (H0 + b S) has Hermitian part 0.5 h Im(b) S; S's eigenvalues are +-1
            psi, err = expv(self.matvec, psi, -0.5j * h, tol, self.bound, 0.5 * h * abs(b.imag))
            self.krylov_error += err
        return psi


def evolve_fixed_substeps(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    psi0: np.ndarray,
    times,
    substeps: int,
    *,
    rhs=None,
) -> list[np.ndarray]:
    """CF4 with a fixed number of substeps per output interval.

    ``rhs`` is a :class:`_Generator` compiled for the same lattice,
    couplings and drive; it is compiled here when omitted, and only then
    are ``geom`` and ``params`` read.  A kept ``rhs`` keeps its
    truncation tolerance, which :func:`exact_evolve` sets from its own.
    ``kets[0]`` may be the caller's ``psi0`` itself (it is when ``psi0``
    is complex): no step writes its input, so no copy is made.
    """
    if substeps < 1:
        raise ValueError("need at least one substep per interval")
    times = np.asarray(times, dtype=float)
    f = _Generator(geom, params, drive) if rhs is None else rhs
    psi = np.asarray(psi0, dtype=complex)
    kets = [psi]
    for k in range(len(times) - 1):
        h = (times[k + 1] - times[k]) / substeps
        for i in range(substeps):
            psi = f.step(psi, times[k] + i * h, h)
        kets.append(psi)
    return kets


def _interval_grid(drive: DriveSpec, t0: float, t1: float) -> np.ndarray:
    """[t0, t1] split at the custom drive's sample times inside it.

    A custom B(t) interpolates linearly, so its slope jumps at each
    sample; a step across a jump loses its fourth order and with it the
    Richardson estimate.  Every step ends on the samples instead, where
    the two Gauss points give the drive's moments exactly.
    """
    return np.concatenate(([t0], drive.breakpoints(t0, t1), [t1]))


def propagate(psi0: np.ndarray, times, substeps, *, rhs: _Generator) -> np.ndarray:
    """Final ket over ``times`` with the step choice of :func:`exact_evolve`:
    ``substeps[k]`` CF4 substeps on each piece of output interval k, as in
    the accepted :attr:`EvolutionResult.substeps`, with its compiled ``rhs`` and drive."""
    times = np.asarray(times, dtype=float)
    psi = psi0
    for k, steps in enumerate(substeps):
        grid = _interval_grid(rhs.drive, times[k], times[k + 1])
        psi = evolve_fixed_substeps(None, None, rhs.drive, psi, grid, steps, rhs=rhs)[-1]
    if not np.all(np.isfinite(psi)):
        raise RuntimeError("an exponential did not converge on the replayed steps")
    return psi


def _next_substeps(substeps: int, estimate: float, target: float) -> int:
    """Substeps that bring an order-4 estimate to ``target`` by the h^4 law."""
    if not math.isfinite(estimate):
        return _MAX_GROWTH * substeps
    factor = min((estimate / target) ** 0.25, _MAX_GROWTH)
    return max(1, math.ceil(substeps * factor))


def _pairs(drive: DriveSpec, times: np.ndarray, k: int) -> bool:
    """Whether output intervals k and k + 1 share one Richardson pair.

    They do when both exist, are equally long up to rounding, and no
    sample of a custom drive lies in (t_k, t_k+2).  The coarse pass steps
    across t_k+1; its steps are twice the fine ones only when the two
    intervals are equal, and a step across a sample loses its fourth
    order (see :func:`_interval_grid`).
    """
    if k + 2 >= len(times):
        return False
    t0, t1, t2 = times[k : k + 3]
    if abs((t2 - t1) - (t1 - t0)) > 16.0 * np.finfo(float).eps * max(abs(t0), abs(t2)):
        return False
    return len(drive.breakpoints(t0, t2)) == 0


def _windows(f: _Generator, psi: np.ndarray, times: np.ndarray, tol: float) -> tuple:
    """(kets, substeps, estimate, truncation part, CF4 steps) of a driven
    run, its windows refined by Richardson pairs as in :func:`exact_evolve`."""
    drive = f.drive
    span = times[-1] - times[0]
    kets = [psi]
    accepted: list[int] = []
    estimate = 0.0
    krylov_total = 0.0
    cf4_steps = 0
    q = 1  # fine substeps per interval
    k = 0
    while k < len(times) - 1:
        width = 2 if _pairs(drive, times, k) else 1
        if width == 2:
            fine_grid, coarse_grid = times[k : k + 3], times[k : k + 3 : 2]
        else:
            fine_grid = coarse_grid = _interval_grid(drive, times[k], times[k + 1])
        budget = tol * (times[k + width] - times[k]) / span
        while True:
            coarse_n = q if width == 2 else -(-q // 2)
            fine_n = q if width == 2 else 2 * coarse_n
            steps = coarse_n * (len(coarse_grid) - 1) + fine_n * (len(fine_grid) - 1)
            if cf4_steps + steps > _MAX_TOTAL_STEPS:
                raise RuntimeError(
                    f"step refinement exhausted at {fine_n} substeps on interval "
                    f"{k} without reaching tol={tol}"
                )
            coarse = evolve_fixed_substeps(None, None, drive, kets[-1], coarse_grid, coarse_n, rhs=f)[-1]
            f.krylov_error = 0.0
            fine = evolve_fixed_substeps(None, None, drive, kets[-1], fine_grid, fine_n, rhs=f)
            krylov = f.krylov_error
            cf4_steps += steps
            # order 4: the fine pass's error is ~ diff / 15
            est = float(np.max(np.abs(coarse - fine[-1]))) / 15.0
            q_next = _next_substeps(fine_n, est, 0.5 * budget)
            if est + krylov <= budget:
                break
            q = q_next
        kets.extend(fine[1:] if width == 2 else fine[-1:])
        accepted.extend([fine_n] * width)
        estimate += est + krylov
        krylov_total += krylov
        q = q_next
        k += width
    return kets, accepted, estimate, krylov_total, cf4_steps


def _fitting_substeps(width: float, bound: float) -> int:
    """Fewest equal CF4 substeps n of an interval of ``width`` whose
    exponentials, of theta = (width / n) bound / 2, fit :func:`expv`'s
    sub-step cap; more than ``_MAX_TOTAL_STEPS`` when no run could."""
    need = 0.5 * width * bound / (_THETA * _MAX_SUB_STEPS)
    if not need <= _MAX_TOTAL_STEPS:
        return _MAX_TOTAL_STEPS + 1
    n = max(1, math.ceil(need))
    # expv's own theta, from h = width / n, may round above the cap
    if math.ceil(0.5 * (width / n) * bound / _THETA) > _MAX_SUB_STEPS:
        n += 1
    return n


def _one_pass(f: _Generator, psi: np.ndarray, times: np.ndarray) -> tuple:
    """(kets, substeps, estimate, truncation part, CF4 steps) of an
    undriven run, in one pass.

    CF4 is exact for an autonomous H0, so a coarse pass would measure only
    Taylor truncation, which the bounds already give: the estimate is the
    summed truncation bounds, within ``_KRYLOV_SHARE`` of the tolerance.
    Each interval takes :func:`_fitting_substeps` (1 unless it is too long
    for one exponential), and each run of intervals with one count is one
    call.  A call whose series gives up is taken again from its start with
    ``_MAX_GROWTH`` times the substeps, as a failed window would be.
    """
    counts = [_fitting_substeps(width, f.bound) for width in np.diff(times)]
    kets = [psi]
    accepted: list[int] = []
    krylov_total = 0.0
    cf4_steps = 0
    k = 0
    while k < len(counts):
        n = counts[k]
        end = k + 1
        while end < len(counts) and counts[end] == n:
            end += 1
        while True:
            if cf4_steps + n * (end - k) > _MAX_TOTAL_STEPS:
                raise RuntimeError(f"step refinement exhausted at {n} substeps on interval {k}")
            f.krylov_error = 0.0
            run = evolve_fixed_substeps(None, None, f.drive, kets[-1], times[k : end + 1], n, rhs=f)
            cf4_steps += n * (end - k)
            if math.isfinite(f.krylov_error):
                break
            n *= _MAX_GROWTH
        kets.extend(run[1:])
        accepted.extend([n] * (end - k))
        krylov_total += f.krylov_error
        k = end
    return kets, accepted, krylov_total, krylov_total, cf4_steps


def exact_evolve(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    psi0: np.ndarray,
    times,
    tol: float = 1e-9,
    *,
    rhs=None,
) -> EvolutionResult:
    """Exact Schrodinger evolution sampled on ``times``.

    The output intervals are taken in windows, each from the ket accepted
    at its left end.  A window is two consecutive intervals of equal
    length when :func:`_pairs` allows it: a fine pass of q substeps on
    each interval and a coarse pass of q substeps over the whole window
    then form one Richardson pair.  Otherwise (the last interval of an
    odd count, unequal intervals, a custom-drive sample inside the pair)
    the window is one interval, with a coarse pass of s = ceil(q / 2)
    substeps and a fine pass of 2s.  Either way the estimate
    max|coarse - fine| / 15 at the window's end is the fine pass's error;
    the ket at a pair's middle time is the fine pass's, unestimated.
    The fine pass's exponentials are held to ``_KRYLOV_SHARE`` of the
    tolerance per unit time, and their summed truncation bounds are added
    to the Richardson estimate; the fine pass is accepted once that sum
    is within the window's share tol * (t_end_w - t_start_w) /
    (t_end - t_0) of the tolerance, so the accepted estimates sum to at
    most ``tol``.  The
    next q, and a rejected window's retry, follow the h^4 law toward half
    the share, counted in fine substeps per interval; the first window
    starts at q = 1.  A custom drive's sample times split a one-interval
    window into pieces of s (and 2s) substeps each.  An undriven run
    takes no windows but one pass (:func:`_one_pass`), its estimate the
    summed truncation bounds.  ``rhs`` is as in
    :func:`evolve_fixed_substeps` and is compiled here when omitted; its
    truncation tolerance is set from ``tol``.
    """
    times = np.asarray(times, dtype=float)
    require_hilbert(geom.n_sites)
    if len(psi0) != 2**geom.n_sites:
        raise ValueError("psi0 dimension does not match the lattice")
    if abs(_norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    if not tol > 0:  # a NaN tolerance is never met
        raise ValueError("tolerance must be positive")
    # NaN fails every comparison, so the grid is checked finite first
    if len(times) < 2 or not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be finite and strictly increasing")

    f = _Generator(geom, params, drive) if rhs is None else rhs
    f.krylov_tol = _KRYLOV_SHARE * tol / (times[-1] - times[0])
    matvecs_before = f.matvecs
    psi = psi0.astype(complex, copy=True)
    if f.driven:
        kets, accepted, estimate, krylov_total, cf4_steps = _windows(f, psi, times, tol)
    else:
        kets, accepted, estimate, krylov_total, cf4_steps = _one_pass(f, psi, times)
    matvecs = f.matvecs - matvecs_before

    norms = np.array([_norm(k) for k in kets])
    norm_drift = float(np.max(np.abs(norms - 1.0)))

    energy_drift = None
    if not f.driven:
        e = np.array([_vdot(k, f.apply(k, 0.0)).real for k in kets])
        energy_drift = float(np.max(np.abs(e - e[0])))
        if norm_drift > max(1e-8, 10.0 * tol):
            raise RuntimeError(
                f"unitary run norm drift {norm_drift:.3e} exceeds bound"
            )

    return EvolutionResult(
        times=times,
        kets=kets,
        norm_drift=norm_drift,
        energy_drift=energy_drift,
        substeps=tuple(accepted),
        error_estimate=estimate,
        cf4_steps=cf4_steps,
        krylov_error=krylov_total,
        matvecs=matvecs,
    )


def project_and_compare(
    result: EvolutionResult,
    basis_kets: list[np.ndarray],
    tdpt: list[CoefficientSeries],
) -> TdptErrorReport:
    """Project the exact evolution onto the active basis and diff with TDPT.

    ``basis_kets`` holds the initial ket first, then one ket per series in
    ``tdpt`` order.  The dynamical phase exp(+i E t) is stripped so the
    comparison happens between interaction-picture coefficients.
    """
    if not tdpt:
        # the series carry the initial energy that strips its dynamical phase
        raise ValueError("need at least one coefficient series")
    if len(basis_kets) != len(tdpt) + 1:
        raise ValueError("need one basis ket per series plus the initial ket")
    basis = np.array(basis_kets).conj()
    gram = basis @ basis.T.conj()
    if np.max(np.abs(gram - np.eye(len(basis_kets)))) > 1e-10:
        raise ValueError("active basis is not orthonormal to 1e-10")
    for series in tdpt:
        if not np.allclose(series.times, result.times, rtol=0, atol=1e-12):
            raise ValueError("series grid does not match the evolution grid")

    times = result.times
    # overlaps[m, k] = <basis_m | psi(t_k)>
    overlaps = basis @ np.array(result.kets).T
    e_init = tdpt[0].e_initial
    c_init = overlaps[0] * np.exp(1j * e_init * times)
    initial_deviation = float(np.max(np.abs(c_init - 1.0)))

    max_error: dict[str, float] = {}
    labels = []
    overall = initial_deviation
    for series, row in zip(tdpt, overlaps[1:]):
        c_exact = row * np.exp(1j * series.e_target * times)
        err = float(np.max(np.abs(c_exact - series.values)))
        labels.append(series.label)
        max_error[series.label] = err
        overall = max(overall, err)
    return TdptErrorReport(
        labels=labels,
        max_error=max_error,
        initial_deviation=initial_deviation,
        overall_max_error=overall,
    )


def convergence_ratio(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    psi0: np.ndarray,
    t_end: float,
) -> tuple[float, float, float]:
    """Self-convergence of the fixed-step integrator, with no reference run.

    Runs of 16, 32 and 64 substeps on each of four equal output intervals
    of [0, t_end] give the differences d1 = max|y_16 - y_32| and d2 =
    max|y_32 - y_64| over the five sampled kets.  For an order-p integrator in its asymptotic
    regime d1 / d2 ~ 2^p (Hairer, Norsett & Wanner, Solving ODEs I, sec.
    II.4).  Returns (d1, d2, d1 / d2); the ratio is ~ 16 for CF4.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    times = np.linspace(0.0, t_end, 5)
    f = _Generator(geom, params, drive)
    runs = [
        evolve_fixed_substeps(geom, params, drive, psi0, times, n, rhs=f)
        for n in (16, 32, 64)
    ]
    d_coarse, d_fine = (
        max(float(np.max(np.abs(a - b))) for a, b in zip(run, finer))
        for run, finer in zip(runs, runs[1:])
    )
    return d_coarse, d_fine, d_coarse / d_fine
