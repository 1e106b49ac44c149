"""First-order time-dependent transition coefficients.

The first-order coefficient of a target is

    c(t) = -i m integral_0^t exp(i omega0 t') B(t') dt',

with m = <target| S |initial> the unit element of the drive string S,
omega0 = E_target - E_initial (hbar = 1), and the drive B(t) the only
carrier of the amplitude D.  For B(t) = D exp(-i omega t), at detuning
delta = omega0 - omega,

    c(t) = m [ a(t) + i b(t) ],
    a(t) = (D/delta) (1 - cos(delta t)),   b(t) = -(D/delta) sin(delta t).

Near resonance the (1 - cos)/delta form is replaced by its Taylor
expansion.  A custom drive is the linear interpolation of its samples,
so its defining time integral also has a closed form, summed segment by
segment.  Gauss-Legendre quadrature of the same integral, on panels no
wider than a quarter period of its carrier, is kept as an independent
reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import (
    CouplingParams,
    drive_elements,
    drive_image_sites,
    energy_expectations,
)
from .lattice import LatticeGeometry
from .manifold import ExcitedLabel, FlipConfig, excite, label_key

# below this |delta * t| the closed form switches to its Taylor branch;
# cancellation in (1 - cos)/delta is the concern, not the sin term
RESONANCE_SERIES_THRESHOLD = 1e-4
# below this |delta * h| a segment of the interpolated drive takes the
# Taylor branch; cancellation in (e^w - E1(w)) / w is the concern
SEGMENT_SERIES_THRESHOLD = 1e-3


@dataclass(frozen=True)
class DriveSpec:
    """Time-dependent drive acting on one plaquette's six-Pauli string.

    A custom drive's samples carry its amplitude, so ``amplitude`` must be 1."""

    kind: str  # "exponential" | "custom"
    amplitude: float
    omega: float = 0.0
    plaquette: int = 0
    t_samples: np.ndarray | None = None
    b_samples: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exponential", "custom"):
            raise ValueError(f"unknown drive kind {self.kind!r}")
        if self.amplitude < 0 or not math.isfinite(self.amplitude):
            raise ValueError("drive amplitude must be finite and >= 0")
        if not math.isfinite(self.omega):
            raise ValueError(f"drive omega must be finite, got {self.omega}")
        if self.kind == "custom":
            if self.amplitude != 1.0:
                raise ValueError(f"a custom drive's amplitude must be 1, got {self.amplitude}")
            if self.t_samples is None or self.b_samples is None:
                raise ValueError("custom drive needs t_samples and b_samples")
            t = np.asarray(self.t_samples, dtype=float)
            if not np.all(np.isfinite(t)):
                raise ValueError("custom drive sample times must be finite")
            if t.ndim != 1 or len(t) < 2 or np.any(np.diff(t) <= 0):
                raise ValueError("custom drive grid must be strictly increasing")
            b = np.asarray(self.b_samples, dtype=complex)
            if b.ndim != 1:
                raise ValueError("custom drive values must be a 1-D sequence")
            if len(b) != len(t):
                raise ValueError(
                    f"custom drive needs one value per sample time: "
                    f"{len(b)} values for {len(t)} times"
                )
            if not np.all(np.isfinite(b)):
                raise ValueError("custom drive values must be finite")

    @classmethod
    def exponential(cls, d: float, omega: float, plaquette: int = 0) -> "DriveSpec":
        return cls(kind="exponential", amplitude=d, omega=omega, plaquette=plaquette)

    @classmethod
    def custom(cls, t_samples, b_samples, plaquette: int = 0) -> "DriveSpec":
        """A drive whose samples carry its amplitude; ``amplitude`` is 1."""
        return cls(
            kind="custom",
            amplitude=1.0,
            plaquette=plaquette,
            t_samples=np.asarray(t_samples, dtype=float),
            b_samples=np.asarray(b_samples, dtype=complex),
        )

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        """The custom drive's sample times strictly inside (t0, t1), where
        its linear interpolation's slope jumps; none for the exponential
        drive."""
        if self.kind != "custom":
            return np.empty(0)
        return self.t_samples[(self.t_samples > t0) & (self.t_samples < t1)]

    def b_of(self, t):
        """Complex drive value B(t); custom drives interpolate linearly."""
        if self.kind == "exponential":
            return self.amplitude * np.exp(-1j * self.omega * np.asarray(t))
        re = np.interp(t, self.t_samples, self.b_samples.real)
        im = np.interp(t, self.t_samples, self.b_samples.imag)
        return re + 1j * im


@dataclass
class CoefficientSeries:
    """Complex trajectory c(t_k) of one target state."""

    target: ExcitedLabel
    e_target: float
    e_initial: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if len(self.times) != len(self.values):
            raise ValueError("times and values length mismatch")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("coefficient grid must start at t = 0")
        if not (self.times[1:] > self.times[:-1]).all():
            raise ValueError("coefficient grid must be strictly increasing")
        if abs(self.values[0]) > 1e-12:
            raise ValueError("first-order coefficient must vanish at t = 0")

    @property
    def label(self) -> str:
        return self.target.label

    @property
    def omega0(self) -> float:
        return self.e_target - self.e_initial

    def index_of(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if not math.isclose(self.times[k], t, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"t={t} is not on the series grid")
        return k


def coefficient_closed_form(m_sign: int, d: float, delta, t):
    """Closed-form coefficient for the exponential drive.

    Returns m_sign * (a + i b) with a, b as in the module docstring;
    accepts scalar or array t >= 0, and a scalar delta or an array of
    them that broadcasts against t (the result then has the broadcast
    shape).  The Taylor branch handles |delta * t| < 1e-4 including
    delta = 0 exactly.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")
    # an overflowing t gives inf or NaN values, which the callers reject
    # (exit 3) with a message of their own instead of numpy's warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = delta * t_arr
        series = np.abs(x) < RESONANCE_SERIES_THRESHOLD

        # stable main branch: 1 - cos(x) = 2 sin(x/2)^2; zero where delta is
        unused = series | (delta == 0.0)
        a = np.where(unused, 0.0, d * (2.0 * np.sin(x / 2.0) ** 2) / delta)
        b = np.where(unused, 0.0, -d * np.sin(x) / delta)

        if np.any(series):
            ts = np.where(series, t_arr, 0.0)
            xs = delta * ts
            a = np.where(series, d * (delta * ts * ts / 2.0) * (1.0 - xs * xs / 12.0), a)
            b = np.where(series, -d * ts * (1.0 - xs * xs / 6.0), b)
        out = np.asarray((a + 1j * b) * m_sign)
    return complex(out) if out.ndim == 0 else out


# built on first use: the first eigh call costs every importer about 1 MB
@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    from the eigenpairs of the Jacobi matrix (Golub & Welsch, Math. Comp.
    23, 221 (1969))."""
    k = np.arange(1, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    # the exact rule is symmetric about 0 with weights summing to 2;
    # imposing both removes most of the eigensolver's rounding
    return 0.5 * (nodes - nodes[::-1]), (weights + weights[::-1]) / np.sum(weights)


def _quadrature_edges(drive: DriveSpec, delta_e: float, t: float) -> np.ndarray:
    """Panel edges over [0, t]: every custom-drive sample inside (0, t) is
    an edge, and no panel is wider than a quarter period of the
    integrand's carrier frequency, so each panel holds exp(i nu t) times
    a linear function."""
    edges = np.concatenate(([0.0], drive.breakpoints(0.0, t), [t]))
    freq = delta_e if drive.kind == "custom" else delta_e - drive.omega
    if freq == 0.0:
        return edges
    quarter = 0.5 * math.pi / abs(freq)
    pieces = [
        np.linspace(lo, hi, int(math.ceil((hi - lo) / quarter)) + 1)[:-1]
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    return np.concatenate(pieces + [[t]])


def coefficient_quadrature(m: complex, drive: DriveSpec, delta_e: float, t: float) -> complex:
    """Numerical evaluation of the defining coefficient integral.

    c(t) = (1/i) * m * integral_0^t exp(i delta_e t') B(t') dt'
    with m the unit drive element; B(t) carries the drive amplitude.  The
    8-point Gauss-Legendre rule samples the integrand on every panel of
    :func:`_quadrature_edges` at once.
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    if t == 0 or m == 0:
        return 0.0 + 0.0j
    # on a panel of at most a quarter period, exp(i nu t) times a linear
    # function, the 8-point rule errs by at most (pi/2)^16 (8!)^4 /
    # (17 (16!)^3) ~ 2e-20 of the panel width times the integrand's scale
    # (Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984,
    # sec. 2.7)
    x, w = _gauss_legendre(8)
    edges = _quadrature_edges(drive, delta_e, float(t))
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * x
    values = np.exp(1j * delta_e * nodes) * drive.b_of(nodes)
    return complex(-1j * m * np.sum(half * (values @ w)))


def coefficient_interpolated(m: complex, drive: DriveSpec, delta_e: float, times) -> np.ndarray:
    """Exact coefficient integral of a custom drive on a time grid.

    B(t) is the linear interpolation of the drive samples, so on each
    segment [x0, x0 + h] between consecutive breakpoints (the samples
    and the grid times) it is b0 + (b1 - b0) u / h, and

        integral_0^h exp(i delta_e (x0 + u)) B dt
            = exp(i delta_e x0) h [b0 E1(w) + (b1 - b0) E2(w)],  w = i delta_e h,

    with E1(w) = (e^w - 1)/w and E2(w) = (e^w - E1(w))/w.  The segment
    integrals are summed cumulatively, read off at the grid times, which
    must start at 0 and increase strictly, and multiplied by -i m, with m
    the unit drive element.
    """
    if drive.kind != "custom":
        raise ValueError("coefficient_interpolated needs a custom drive")
    times = np.asarray(times, dtype=float)
    if len(times) == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("time grid must start at 0 and increase strictly")
    if m == 0:
        return np.zeros(len(times), dtype=complex)
    # the sorted grid without repeats, as np.union1d gives it; numpy's unique
    # imports numpy.ma on its first call
    x = np.sort(np.concatenate((times, drive.breakpoints(0.0, times[-1]))))
    x = x[np.concatenate(([True], x[1:] != x[:-1]))]
    b = drive.b_of(x)
    h = np.diff(x)
    theta = delta_e * h
    # E1(i theta) = e^{i theta/2} sin(theta/2) / (theta/2) has no cancellation
    e1 = np.exp(0.5j * theta) * np.sinc(theta / (2.0 * math.pi))
    w = 1j * theta
    e2 = np.empty_like(w)
    series = np.abs(theta) < SEGMENT_SERIES_THRESHOLD
    ws = w[series]
    # E2(w) = sum_k w^k / (k! (k + 2))
    e2[series] = 0.5 + ws * (1.0 / 3.0 + ws * (1.0 / 8.0 + ws * (1.0 / 30.0 + ws / 144.0)))
    wm = w[~series]
    e2[~series] = (np.exp(wm) - e1[~series]) / wm
    segments = np.exp(1j * delta_e * x[:-1]) * h * (b[:-1] * e1 + (b[1:] - b[:-1]) * e2)
    integral = np.concatenate(([0.0], np.cumsum(segments)))
    return -1j * m * integral[np.searchsorted(x, times)]


def connected_targets(
    geom: LatticeGeometry,
    params: CouplingParams,
    initial: FlipConfig,
    drive_plaquette: int,
) -> list[ExcitedLabel]:
    """Excited labels with a nonzero drive matrix element from ``initial``.

    The drive string maps ``initial`` to one product ket, its image, which
    differs from it on the sites :func:`drive_image_sites` names whatever
    the configuration.  ``excite(initial, j)`` differs from ``initial``
    only on plaquette j's third-position site, so it is connected exactly
    when that site is the whole image; at most one j qualifies.  The cost
    is O(1) in the lattice size.  The couplings and the amplitude do not
    change which targets connect, so ``params`` is not read; it keeps its
    place for callers that pass the arguments by position.  The tests hold
    the result to a scan of every candidate's element, on flip signatures
    and on explicit 2**n kets (``tests/reference.py``).
    """
    if initial.n != geom.n_plaquettes:
        raise ValueError(
            f"config has {initial.n} plaquettes, geometry has {geom.n_plaquettes}"
        )
    image = drive_image_sites(geom, drive_plaquette)
    if len(image) != 1:
        return []
    (site,) = image
    # the plaquette, if any, whose third position is that site
    return [excite(initial, p) for p in geom.site_plaquette_index[site].tolist()
            if geom.position3_site(p) == site]


@dataclass(frozen=True)
class FirstOrder:
    """First-order transitions of several members, each an initial
    configuration with its own list of targets (:func:`first_order`).

    The targets of all members are listed member after member, and
    ``member`` holds each one's member index.  Every label's key is taken
    against the first member's configuration.  ``elements`` holds each
    target's unit drive element, zero unless the target is its member's
    drive image.
    """

    drive: DriveSpec
    member_keys: list[frozenset[int]]
    target_keys: list[frozenset[int]]
    e_members: np.ndarray
    e_targets: np.ndarray
    member: np.ndarray
    elements: np.ndarray

    def values(self, times) -> np.ndarray:
        """The (targets, len(times)) first-order series on the grid
        ``times``; a target with a zero element has a zero row."""
        return self._series(np.asarray(times, dtype=float), final=False)

    def final_values(self, times) -> np.ndarray:
        """Each target's value at times[-1], the last column of
        :meth:`values` bit for bit; the exponential drive's closed form is
        evaluated at that time only."""
        return self._series(np.asarray(times, dtype=float), final=True)[:, 0]

    def _series(self, times: np.ndarray, final: bool) -> np.ndarray:
        out = np.zeros((len(self.elements), 1 if final else len(times)), dtype=complex)
        live = np.flatnonzero(self.elements)
        m = self.elements[live]
        delta_e = self.e_targets[live] - self.e_members[self.member[live]]
        if self.drive.kind == "exponential":
            # c = (M/D) * closed_form(D) = M * closed_form at unit amplitude
            t = times[-1:] if final else times
            out[live] = m[:, None] * coefficient_closed_form(
                1, 1.0, (delta_e - self.drive.omega)[:, None], t
            )
        else:
            # the integral at t depends on every grid time before it
            for row, mk, de in zip(live.tolist(), m.tolist(), delta_e.tolist()):
                series = coefficient_interpolated(mk, self.drive, de, times)
                out[row] = series[-1:] if final else series
        return out


def first_order(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    members,
    targets,
) -> FirstOrder:
    """Energies and drive elements of several members and their targets
    in one pass.

    ``members`` lists one or more initial configurations and ``targets``
    one sequence of excited labels per member.  Every label is keyed
    (:func:`~kitaevsim.manifold.label_key`) against one reference, the
    first member, so one :func:`energy_expectations` call gives every
    energy and one :func:`drive_elements` call every member's element; a
    key holds only the sites where a label differs from the reference, so
    one member's keys stay as small as its targets' differences.  A
    label's bond terms are the reference's negated at its key's sites,
    exactly the terms of a key against the member, summed in the same
    order, so each energy has the bits of a call keyed against its
    member.  A target has its member's element when its key against the
    member is the drive's image
    (:func:`~kitaevsim.hamiltonian.drive_image_sites`), and zero
    otherwise.  The drive alone carries the amplitude D, so ``params.d``
    is not read; a custom drive's unit element has D = 1.
    """
    reference = members[0]
    member_keys = [label_key(geom, reference, config) for config in members]
    image = drive_image_sites(geom, drive.plaquette)
    owner, target_keys, driven = [], [], []
    for k, (config, key, labels) in enumerate(zip(members, member_keys, targets)):
        for target in labels:
            relative = label_key(geom, config, target)
            owner.append(k)
            target_keys.append(key ^ relative)
            driven.append(relative == image)
    energies = energy_expectations(geom, params, reference, member_keys + target_keys)
    owner = np.array(owner, dtype=np.intp)
    element = drive_elements(geom, reference, member_keys, drive.plaquette, drive.amplitude)
    return FirstOrder(
        drive=drive,
        member_keys=member_keys,
        target_keys=target_keys,
        e_members=energies[:len(member_keys)],
        e_targets=energies[len(member_keys):],
        member=owner,
        elements=np.where(np.array(driven, dtype=bool), element[owner], 0.0),
    )


def evolve_coefficients(
    geom: LatticeGeometry,
    params: CouplingParams,
    drive: DriveSpec,
    initial: FlipConfig,
    targets,
    times,
) -> list[CoefficientSeries]:
    """One first-order CoefficientSeries per target state, in order of
    (plaquette, base bits): the one-member call of :func:`first_order`.

    The initial state carries zeroth-order amplitude one and no series of
    its own.  Only the target whose key against the initial state is the
    drive's image has a nonzero drive element; every other target gets an
    identically zero series.  A custom drive's series is the exact
    integral of its linear interpolation (:func:`coefficient_interpolated`).
    """
    times = np.asarray(times, dtype=float)
    if len(times) == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("time grid must start at 0 and increase strictly")

    ordered = sorted(targets, key=lambda tg: (tg.flipped_plaquette, tg.base.bits))
    first = first_order(geom, params, drive, [initial], [ordered])
    e_init = float(first.e_members[0])
    return [
        CoefficientSeries(target=target, e_target=e_t, e_initial=e_init, times=times, values=values)
        for target, e_t, values in zip(ordered, first.e_targets.tolist(), first.values(times))
    ]
