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
a pair per interval.  The generator is compiled once per run.  The
fixed-step core is exposed so convergence order can be measured
directly by step halving.

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

from .hamiltonian import CouplingParams, drive_string, h0_terms
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
    apply, v: np.ndarray, scale: complex, tol: float, bound: float
) -> tuple[np.ndarray, float]:
    """exp(scale * M) v by a truncated Taylor series, where ``apply(x)``
    returns M x as a new vector and ``bound`` >= ||M||.

    The unit interval is cut into s = ceil(|scale| bound / 2) equal
    sub-steps tau, so that theta = |scale| bound tau <= 2 on each.  A
    sub-step sums the terms t_k = (tau scale M)^k w / k!, one matvec
    each, and stops at the first k with k + 1 > theta and
    ||t_k|| theta / (k + 1 - theta) <= tol * tau: since ||t_(j+1)|| <=
    ||t_j|| theta / (j + 1), that is a bound on the norm of every term
    left out (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).

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
    for _ in range(subs):
        term, total = w, w.copy()
        for k in range(_MAX_TAYLOR_TERMS + 1):
            if k:
                term = apply(term)
                term *= factor / k
                total += term
            size = _norm(term)
            if not math.isfinite(size):
                return np.full_like(w, np.nan), math.inf
            rest = size * theta / (k + 1 - theta) if k + 1 > theta else math.inf
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


class _Generator:
    """H(t) = H0 + B(t) S compiled once for one lattice, couplings and drive.

    Every Pauli string acts as ``phase[k] * psi[k ^ mask]``
    (:func:`string_term`), and every phase of H0 and S is a real sign
    times one constant.  Of the bond terms of :func:`h0_terms`, the z
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
        # a subnormal coupling adds nothing next to a normal one, yet
        # would slow every matvec with subnormal arithmetic
        tiny = np.finfo(float).tiny
        params = replace(params, **{f"j{c}": 0.0 for c in COMPONENTS if abs(params.j(c)) < tiny})
        self.drive = drive
        self.driven = drive.kind == "custom" or drive.amplitude != 0.0
        blocks = self._compile_rows(geom, params)
        self.bound = self.h0_bound
        # one column of scales; set_drive writes the drive's
        self.scales = np.array([0.0 if key in ("+b", "-b") else key for key in blocks], dtype=complex)[:, None]
        self.drive_blocks = [(blocks[key], key == "-b") for key in ("+b", "-b") if key in blocks]
        # allocated once the row temporaries are gone: psi times every
        # signed scale, written once per matvec
        self.src = np.empty((len(blocks), len(self.diag)), dtype=complex)
        # row 0 takes diag * psi, the rest the chunk's gathered rows
        self.buf = np.empty((self.table.shape[1] + 1, self.chunk), dtype=complex)
        c = self.chunk
        self.chunks = [(slice(i * c, (i + 1) * c), self.diag[i * c : (i + 1) * c], idx)
                       for i, idx in enumerate(self.table)]
        self.krylov_tol = _KRYLOV_TOL
        self.krylov_error = 0.0
        self.matvecs = 0

    def _compile_rows(self, geom: LatticeGeometry, params: CouplingParams) -> dict:
        """Set ``diag``, ``h0_bound``, ``drive_unit``, ``chunk`` and the
        index ``table``; return the source blocks, each signed scale (a
        bond's +-|J|, or the drive's "+b" or "-b") -> its block, in order
        of first use."""
        n = geom.n_sites
        dim = 2**n
        # one index row per x and y bond of nonzero coupling, then the drive
        rows = sum(1 for _, _, c in geom.bonds if c != "z" and params.j(c) != 0.0) + self.driven
        self.chunk = _chunk_size(rows, dim)
        k = np.arange(dim).reshape(-1, self.chunk)
        # chunk-major, filled in place: table[c] holds every row's
        # indices for output chunk c, so no row is held twice
        self.table = np.empty((len(k), rows, self.chunk), dtype=np.intp)
        blocks: dict = {}

        def fill(r: int, mask: int, negative: np.ndarray, keys) -> None:
            # row r: (k ^ mask) into the block of keys[1] where
            # ``negative`` holds, of keys[0] where it does not
            row = self.table[:, r]
            np.bitwise_xor(k, mask, out=row)
            offsets = [dim * blocks.setdefault(key, len(blocks))
                       for key, used in zip(keys, (not negative.all(), negative.any())) if used]
            row += offsets[0]
            if len(offsets) == 2:
                np.add(row, offsets[1] - offsets[0], out=row, where=negative)

        self.diag = np.zeros(dim, dtype=complex)
        # the z bonds sum into the real part, a view
        diag = self.diag.real
        r = 0
        row_sum = 0.0
        for mask, term in h0_terms(geom, params):
            if mask == 0:
                diag += term
                continue
            # every entry of a bond's term is +-J
            j = abs(float(term[0]))
            fill(r, mask, (term < 0.0).reshape(k.shape), (j, -j))
            row_sum += j
            r += 1
        self.h0_bound = float(np.max(np.abs(diag))) + row_sum
        if self.driven:
            mask, phase = string_term(drive_string(geom, self.drive.plaquette), n)
            # phase[0] has every sign +1: it is the constant
            self.drive_unit = complex(phase[0])
            fill(r, mask, ((phase * self.drive_unit.conjugate()).real < 0.0).reshape(k.shape), ("+b", "-b"))
        return blocks

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
            psi, err = expv(self.matvec, psi, -0.5j * h, tol, self.bound)
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
    """
    if substeps < 1:
        raise ValueError("need at least one substep per interval")
    times = np.asarray(times, dtype=float)
    f = _Generator(geom, params, drive) if rhs is None else rhs
    # step never writes its input, so the first kept ket is this one copy
    psi = psi0.astype(complex, copy=True)
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
    window into pieces of s (and 2s) substeps each.  ``rhs`` is as in
    :func:`evolve_fixed_substeps` and is compiled once here when
    omitted; its truncation tolerance is set from ``tol``.
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
    span = times[-1] - times[0]
    f.krylov_tol = _KRYLOV_SHARE * tol / span
    matvecs_before = f.matvecs
    kets = [psi0.astype(complex, copy=True)]
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
            coarse = evolve_fixed_substeps(geom, params, drive, kets[-1], coarse_grid, coarse_n, rhs=f)[-1]
            f.krylov_error = 0.0
            fine = evolve_fixed_substeps(geom, params, drive, kets[-1], fine_grid, fine_n, rhs=f)
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
