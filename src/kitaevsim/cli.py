"""Batch front end.

Runs are configured by a flat key=value text file plus command-line flag
overrides (flags win).  Every emitted file carries a header block with
the full configuration and its hash, so identical configurations produce
byte-identical outputs.

Exit codes: 0 success, 1 failed validation checks, 2 configuration or
usage errors, 3 computation failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .correlation import correlation_exact_scan, correlation_formula, selection_rule_report
from .density import (
    DensityMatrix,
    assemble_state,
    density_matrix,
    initial_label,
    keyed_density,
    keyed_mixture,
    phased_amplitudes,
    require_budget,
    sublattice_entropy,
    thermal_weights,
)
from .hamiltonian import CouplingParams, EnergyTable, drive_element, energy_expectation
from .lattice import build_lattice, geometry_to_json, validate_geometry
from .manifold import (
    FlipConfig,
    enumerate_weight_class,
    excite,
    signature_kernel,
)
from .output import write_csv, write_json, write_plot_script
from .pauli import HILBERT_CAP_SITES
from .perturbation import (
    DriveSpec,
    coefficient_closed_form,
    connected_targets,
    evolve_coefficients,
    first_order,
)
from .phase import decompose, decompose_values, effective_level, shifted_transition_frequency, stability_intervals
from .validation import oracle_error_report, run_acceptance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

# manifold lists every configuration of n plaquettes: 2**20 rows take about
# 5 s and 264 MB, and each further plaquette doubles both
MANIFOLD_MAX_PLAQUETTES = 20

# thermal's one pass over its members, the keyed mixture and the writes peak
# at 4.2-4.8 KB a member by tracemalloc (20x20, 40x40 and 60x60 weight01,
# 2x6 and 3x4 --members all; 4.0-4.4 KB when each member was evolved on its
# own).  Twice that leaves room for the allocator; a member's label and bits
# grow with the torus, to about 9 KB a member at 128x128
THERMAL_MEMBER_BYTES = 8192

# tracemalloc peaks, counted about twice as above: a time sample 670 B besides
# its series (phase, 2x2 to 64x64; the other commands less), a series 16 B a
# sample (evolve, 4x4 to 32x32), a sweep row 580 B (2x2 and 16x16).  Those
# were taken while write_csv formatted a block whole; in chunks, phase peaks
# at 152 B a sample, and sweep, in blocks of SWEEP_BLOCK_ENTRIES, at 85 B a
# row (2x2, 500 000 rows), so the counts are generous
SAMPLE_BYTES = 1536
SERIES_SAMPLE_BYTES = 32
SWEEP_ROW_BYTES = 1200

# (omega rows x samples) entries the sweep evaluates at once, 16 KB for each
# float temporary of the closed form and its decomposition.  Blocks of 32 768
# took 4.2-4.4 s on 500 000 omegas against 5.0-5.4 s, but label_torus's
# 101 x 65 grid in one block left its process's peak RSS 0.14 MB higher
SWEEP_BLOCK_ENTRIES = 1 << 11

# smallest scan_tol the correlate exact scan is known to meet: 2e-15 ends
# in 14 s on 2x2 and 83 s on 2x3 (2-core machine), while 1e-15 on 2x2 runs
# past 150 s, its step estimate held up by rounding at 3e-16 to 1e-14
SCAN_TOL_FLOOR = 2e-15


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    nx: int = 2
    ny: int = 2
    jx: float = 1.0
    jy: float = 1.0
    jz: float = 1.0
    d: float = 0.01
    omega: float = 0.5
    drive_file: str = ""
    initial: int = 0
    plaquette: int = 0
    t_max: float = 6.283185307179586
    samples: int = 65
    scan_tol: float = 1e-8
    outdir: str = "out"
    seed: int = 12345
    jobs: int = 1  # no effect; kept because every output header records it
    kt: float = 1.0

    def validate(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ConfigError(f"lattice must be at least 2x2, got {self.nx}x{self.ny}")
        n_plaq = self.nx * self.ny
        if not 0 <= self.initial < (1 << n_plaq):
            raise ConfigError(f"initial bitmask 0x{self.initial:x} out of range")
        if not 0 <= self.plaquette < n_plaq:
            raise ConfigError(f"plaquette {self.plaquette} out of range")
        try:
            CouplingParams(self.jx, self.jy, self.jz, self.d, self.omega)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")
        if self.samples < 2:
            raise ConfigError("need at least 2 time samples")
        if not self.scan_tol >= SCAN_TOL_FLOOR:  # a NaN tolerance is never met
            raise ConfigError(
                f"scan_tol must be at least {SCAN_TOL_FLOOR:g}, got {self.scan_tol}: the exact "
                f"scan's error estimate stops falling near 1e-15, so a smaller one is never met"
            )
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if not self.kt >= 0:  # also rejects NaN; inf means uniform weights
            raise ConfigError(f"kt must be >= 0, got {self.kt}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _read_text(path: str) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: byte {exc.start} is "
                          f"0x{exc.object[exc.start]:02x}") from exc


def parse_config_file(path: str) -> dict:
    """Flat key=value format; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


# help text of the command-line flags that need more than the key's name
_FIELD_HELP = {
    "d": "drive amplitude",
    "omega": "drive frequency",
    "drive_file": "CSV of t,ReB,ImB samples for a custom drive",
    "initial": "initial flip configuration (hex bitmask)",
    "plaquette": "driven plaquette index",
    "jobs": "no effect; recorded in output headers",
}

# each run setting's declared type, "int", "float" or "str"
_SETTING_KINDS = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    """Parse one raw run-setting value from a config file or a flag."""
    if name not in _SETTING_KINDS:
        raise ConfigError(f"unknown config key {name!r}")
    kind = _SETTING_KINDS[name]
    try:
        if kind == "int":
            return int(raw, 0)  # accepts 0x.. bitmask hex
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def load_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, then the flags' (flags win), validated."""
    values = {}
    if getattr(args, "config", None):
        values = {key: _coerce(key, raw) for key, raw in parse_config_file(args.config).items()}
    for f in fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            values[f.name] = _coerce(f.name, raw)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _require_sample_budget(samples: int, series: int) -> None:
    """Raise RuntimeError if the time samples and their series are over budget."""
    require_budget(samples * (SAMPLE_BYTES + SERIES_SAMPLE_BYTES * series),
                   f"{samples} time samples and {series} first-order series need about")


def _build_scene(cfg: RunConfig):
    _require_sample_budget(cfg.samples, 0)
    geom = build_lattice(cfg.nx, cfg.ny)
    params = CouplingParams(jx=cfg.jx, jy=cfg.jy, jz=cfg.jz, d=cfg.d, omega=cfg.omega)
    if cfg.drive_file:
        data = np.genfromtxt(_read_text(cfg.drive_file).splitlines(), delimiter=",", comments="#")
        if data.ndim != 2 or data.shape[1] < 3:
            raise ConfigError("drive file needs columns t, ReB, ImB")
        bad = np.flatnonzero(~np.all(np.isfinite(data[:, :3]), axis=1))
        if len(bad):
            raise ConfigError(
                f"drive file has {len(bad)} sample(s) with a non-finite t, ReB or "
                f"ImB, the first in data row {bad[0] + 1}"
            )
        back = np.flatnonzero(np.diff(data[:, 0]) <= 0)
        if len(back):
            raise ConfigError(
                f"drive file times must increase strictly; data row {back[0] + 2} "
                f"has t = {data[back[0] + 1, 0]:.17g} after {data[back[0], 0]:.17g}"
            )
        drive = DriveSpec.custom(
            data[:, 0], data[:, 1] + 1j * data[:, 2], plaquette=cfg.plaquette
        )
        # b_of would hold the end samples outside the file's interval
        t_first, t_last = float(data[0, 0]), float(data[-1, 0])
        if t_first > 0.0 or t_last < cfg.t_max:
            raise ConfigError(
                f"drive file covers t in [{t_first:.17g}, {t_last:.17g}]; "
                f"it must cover [0, t_max = {cfg.t_max:.17g}]"
            )
        # the samples carry the amplitude and d has no effect on them, so a
        # d other than 1 is refused rather than silently ignored
        if cfg.d != 1.0:
            raise ConfigError(
                f"a drive file's samples carry the drive amplitude, so d must "
                f"be 1 with --drive-file; got d = {cfg.d:.17g}"
            )
    else:
        drive = DriveSpec.exponential(cfg.d, cfg.omega, plaquette=cfg.plaquette)
    initial = FlipConfig(cfg.initial, geom.n_plaquettes)
    times = np.linspace(0.0, cfg.t_max, cfg.samples)
    return geom, params, drive, initial, times


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _columns(rows: list[tuple], width: int) -> list:
    """The columns of ``rows``, ``width`` empty ones when there are none."""
    return [list(column) for column in zip(*rows)] or [[]] * width


def _maybe_plot(args, csv_path: Path) -> None:
    if args.emit_plot_script:
        write_plot_script(csv_path)


def cmd_lattice(cfg: RunConfig, args) -> int:
    geom = build_lattice(cfg.nx, cfg.ny)
    report = validate_geometry(geom)
    out = _outdir(cfg) / "geometry.json"
    out.write_text(geometry_to_json(geom) + "\n")
    for name, passed, detail in report.checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    kernel = signature_kernel(geom)
    if kernel:
        print(
            f"[WARN] signature_injectivity: {len(kernel)}-dimensional flip "
            f"kernel; distinct configurations can share one product state "
            f"(basis: {', '.join(c.hex for c in kernel)})"
        )
    else:
        print("[PASS] signature_injectivity: flip kernel is trivial")
    print(f"wrote {out}")
    return EXIT_OK if report.ok else EXIT_COMPUTE


def cmd_manifold(cfg: RunConfig, args) -> int:
    n = args.n if args.n is not None else cfg.nx * cfg.ny
    if n < 1:
        raise ConfigError("plaquette count must be >= 1")
    if n > MANIFOLD_MAX_PLAQUETTES:
        raise RuntimeError(
            f"{n} plaquettes have {1 << n} configurations, over the limit of "
            f"{1 << MANIFOLD_MAX_PLAQUETTES} rows (n <= {MANIFOLD_MAX_PLAQUETTES})"
        )
    sizes = []
    blocks = []
    for k in range(n + 1):
        configs = enumerate_weight_class(n, k)
        sizes.append(len(configs))
        blocks.append(([c.hex for c in configs], k))
    total = sum(sizes)
    print(f"weight-class sizes: {', '.join(str(s) for s in sizes)}")
    print(f"total states: {total}")
    out = _outdir(cfg) / "configs.csv"
    write_csv(out, {**cfg.as_dict(), "n": n}, ["bitmask", "weight"], blocks)
    print(f"wrote {out}")
    return EXIT_OK


def _overflow(label: str, t_max: float) -> RuntimeError:
    return RuntimeError(f"t_max = {t_max:.17g} overflows the series of {label} or its phases")


def _require_finite(coeffs, t_max: float) -> None:
    """Raise RuntimeError if a series value, or the phase E * t_max of the
    initial state or a target, is not finite."""
    for s in coeffs:
        if not (np.isfinite(s.values).all() and math.isfinite(s.e_initial * t_max)
                and math.isfinite(s.e_target * t_max)):
            raise _overflow(s.label, t_max)


def _evolved(cfg: RunConfig, connected_only: bool):
    """Scene and first-order series.  The series' samples are checked
    against the memory budget before any series is evolved."""
    geom, params, drive, initial, times = _build_scene(cfg)
    if connected_only:
        targets = connected_targets(geom, params, initial, drive.plaquette)
    else:
        targets = [excite(initial, j) for j in range(geom.n_plaquettes)]
    _require_sample_budget(cfg.samples, len(targets))
    coeffs = evolve_coefficients(geom, params, drive, initial, targets, times)
    _require_finite(coeffs, cfg.t_max)
    return geom, params, drive, initial, times, coeffs


def _connected(cfg: RunConfig):
    """:func:`_evolved` over the connected targets, for the commands that
    need a series: RuntimeError (exit 3) if the drive connects none."""
    scene = _evolved(cfg, True)
    if not scene[-1]:
        raise RuntimeError("no connected targets: the drive connects no target "
                           "to the initial configuration")
    return scene


def cmd_evolve(cfg: RunConfig, args) -> int:
    geom, params, _, initial, times, coeffs = _evolved(cfg, args.connected_only)
    meta = dict(cfg.as_dict())
    for series in coeffs:
        meta[f"omega0[{series.label}]"] = series.omega0
    outdir = _outdir(cfg)
    out = outdir / "coefficients.csv"
    write_csv(
        out, meta, ["target", "t", "re_c", "im_c"],
        ((s.label, s.times, s.values.real, s.values.imag) for s in coeffs),
    )
    _maybe_plot(args, out)

    # the series carry the energies of the initial state and of every target
    e_initial = (coeffs[0].e_initial if coeffs
                 else energy_expectation(geom, params, initial))
    table = EnergyTable({(initial.bits, -1): e_initial} | {
        (s.target.base.bits, s.target.flipped_plaquette): s.e_target for s in coeffs
    })
    write_csv(
        outdir / "energies.csv", cfg.as_dict(),
        ["bitmask", "excited", "plaquette", "energy"], [_columns(table.rows(), 4)],
    )

    # active-basis density matrix of the evolved state at t_max; with no
    # series the first-order state is the initial ket
    if coeffs:
        rho = density_matrix(assemble_state(coeffs, float(times[-1]), initial))
    else:
        rho = DensityMatrix(np.ones((1, 1), dtype=complex), labels=(initial_label(initial),))
    write_json(
        outdir / "density.json", cfg.as_dict(), {"t": float(times[-1]), "density": rho.to_payload()}
    )
    print(f"wrote {out} ({len(coeffs)} series), energies.csv, density.json")
    return EXIT_OK


def cmd_phase(cfg: RunConfig, args) -> int:
    *_, times, coeffs = _connected(cfg)
    series = coeffs[0]
    phase = decompose(series)
    intervals = stability_intervals(phase)
    ref_phase = decompose_values(times, np.ones(len(times), dtype=complex))
    t_eff, e_eff = effective_level(series.e_target, phase)
    _, shifted = shifted_transition_frequency(
        series.e_target, phase, series.e_initial, ref_phase
    )
    outdir = _outdir(cfg)

    phase_csv = outdir / "phase.csv"
    write_csv(
        phase_csv, cfg.as_dict(), ["t", "A", "a", "phi", "singular"],
        [(phase.times, phase.modulus, phase.log_modulus, phase.angle, phase.singular)],
    )
    _maybe_plot(args, phase_csv)
    write_csv(
        outdir / "intervals.csv", cfg.as_dict(),
        ["t_start", "t_end", "label"], [_columns(intervals, 3)],
    )
    # the all-ones reference is never singular, so both select the same samples
    write_csv(
        outdir / "levels.csv", cfg.as_dict(),
        ["t", "e_eff_target", "shifted_resonance"], [(t_eff, e_eff, shifted)],
    )
    print(f"wrote {phase_csv}, intervals.csv, levels.csv "
          f"({len(intervals)} stability intervals)")
    return EXIT_OK


def _sweep_rows(times, omega0: float, m: complex, omegas) -> tuple[np.ndarray, np.ndarray]:
    """|c(t_max)|^2 and the predicted resonance omega0 - phi(t_max)/t_max
    of the closed-form series m * c(omega0 - omega, t) at each omega.

    The (omega rows x samples) closed form and its decomposition go in
    blocks of SWEEP_BLOCK_ENTRIES entries; each element goes through the
    operations the series of one omega would.  A predicted resonance is
    NaN where the last sample is singular.
    """
    k = len(times) - 1
    weight, predicted = np.empty(len(omegas)), np.empty(len(omegas))
    step = max(1, SWEEP_BLOCK_ENTRIES // len(times))
    for start in range(0, len(omegas), step):
        deltas = omega0 - omegas[start:start + step]
        ph = decompose_values(times, m * coefficient_closed_form(1, 1.0, deltas[:, None], times))
        stop = start + len(deltas)
        # a float's ** 2 is C pow, which numpy's square (x * x) can miss by an ulp
        weight[start:stop] = [w ** 2 for w in ph.modulus[:, k].tolist()]
        predicted[start:stop] = np.where(ph.singular[:, k], math.nan, omega0 - ph.angle[:, k] / times[k])
    return weight, predicted


def cmd_sweep(cfg: RunConfig, args) -> int:
    if cfg.drive_file:
        raise ConfigError(
            "sweep scans the exponential drive's omega; --drive-file has none"
        )
    if args.omega_steps < 1:
        raise ConfigError(f"--omega-steps must be >= 1, got {args.omega_steps}")
    if not (math.isfinite(args.omega_min) and math.isfinite(args.omega_max)):
        raise ConfigError(
            f"--omega-min and --omega-max must be finite, got "
            f"{args.omega_min} and {args.omega_max}"
        )
    require_budget(args.omega_steps * SWEEP_ROW_BYTES, f"{args.omega_steps} sweep rows need about")
    geom, _, _, initial, times, coeffs = _connected(cfg)
    omega0 = coeffs[0].omega0
    # the series' own element; only the detuning omega0 - omega changes
    m = drive_element(geom, initial, cfg.plaquette, cfg.d)
    omegas = np.linspace(args.omega_min, args.omega_max, args.omega_steps)
    rows = (omegas, *_sweep_rows(times, omega0, m, omegas))
    if args.omega_min > args.omega_max:
        # linspace gives a descending range in order; it is written ascending
        rows = tuple(column[::-1] for column in rows)
    outdir = _outdir(cfg)
    out = outdir / "sweep.csv"
    write_csv(
        out, {**cfg.as_dict(), "omega_min": args.omega_min,
              "omega_max": args.omega_max, "omega_steps": args.omega_steps},
        ["omega", "weight_at_t_max", "predicted_resonance"], [rows],
    )
    _maybe_plot(args, out)

    # the first row of the greatest weight, as max() over the rows picks
    # it: a NaN weight is passed over unless it comes first
    weight = rows[1]
    at = 0 if math.isnan(weight[0]) else int(np.argmax(np.where(np.isnan(weight), -math.inf, weight)))
    peak = [float(column[at]) for column in rows]
    summary = {
        "omega0": omega0,
        "omega_peak": peak[0],
        "weight_at_peak": peak[1],
        "predicted_shifted_peak": peak[2],
        "t_evaluated": float(times[-1]),
    }
    write_json(outdir / "sweep_summary.json", cfg.as_dict(), summary)
    print(f"wrote {out}; peak at omega={peak[0]:.6g} "
          f"(omega0={omega0:.6g}, predicted shifted {peak[2]:.6g})")
    return EXIT_OK


def cmd_entropy(cfg: RunConfig, args) -> int:
    # S_A from the label amplitudes' Schmidt values: no 2**n ket, no cap
    geom, _, _, initial, times, coeffs = _connected(cfg)
    entropies = sublattice_entropy(geom, initial, coeffs)
    out = _outdir(cfg) / "entropy.csv"
    write_csv(out, cfg.as_dict(), ["t", "s_a"], [(times, entropies)])
    _maybe_plot(args, out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_correlate(cfg: RunConfig, args) -> int:
    geom, params, drive, initial, times, coeffs = _evolved(cfg, True)
    outdir = _outdir(cfg)
    rows = []

    t = float(times[-1])
    t0 = 0.0 if args.literal_t0 else float(times[1])
    if coeffs:
        phases = [decompose(c) for c in coeffs]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            val = correlation_formula(coeffs, phases, t, t0)
        degenerate = bool(caught)
        rows.append((-1, -1, "*", "*", t, t0, float(val.real), float(val.imag), "formula"))
        if degenerate:
            print("note: t0 reference amplitudes all vanish; formula value is "
                  "degenerately zero")

    if geom.n_sites <= HILBERT_CAP_SITES:
        pairs = [(i, j) for i, j, _ in geom.bonds]
        comps = [(a, b) for a in "xyz" for b in "xyz"]
        records = correlation_exact_scan(
            geom, params, drive, initial, pairs, comps, t, tol=cfg.scan_tol
        )
        for r in records:
            rows.append(
                (r.site_i, r.site_j, r.alpha, r.beta, r.t, r.t0,
                 float(r.value.real), float(r.value.imag), r.source)
            )
        report = selection_rule_report(records, tol=cfg.scan_tol)
        verdict = "consistent" if report["consistent"] else "deviations observed"
        print(
            f"selection rule: {verdict} "
            f"(max same-component {report['max_same_component']:.3e}, "
            f"max cross-component {report['max_cross_component']:.3e})"
        )
    else:
        print("lattice beyond the Hilbert cap; exact scan skipped")

    out = outdir / "correlations.csv"
    write_csv(
        out, {**cfg.as_dict(), "t": t, "t0": t0},
        ["i", "j", "alpha", "beta", "t", "t0", "re", "im", "source"], [_columns(rows, 9)],
    )
    print(f"wrote {out}")
    return EXIT_OK


def _thermal_summary(geom, params, drive, configs, times, cfg: RunConfig, emit_density: bool) -> dict:
    """thermal.json's fields for the Boltzmann mixture of ``configs``, each
    evolved to times[-1] at first order in one pass over all members
    (:func:`first_order`), and with ``emit_density`` its density matrix.
    The series are sized before the pass; the mixture and its density
    matrix are taken from the members' keys (:func:`keyed_mixture`,
    :func:`keyed_density`)."""
    # the drive's image, so each member's target plaquette if any, is the
    # same for every configuration
    plaquettes = [tg.flipped_plaquette
                  for tg in connected_targets(geom, params, configs[0], drive.plaquette)]
    _require_sample_budget(cfg.samples, len(plaquettes))
    targets = [[excite(config, p) for p in plaquettes] for config in configs]
    first = first_order(geom, params, drive, configs, targets)
    t = float(times[-1])
    final = first.final_values(times)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = (np.isfinite(final) & np.isfinite(first.e_targets * t)
                  & np.isfinite(first.e_members[first.member] * t))
    if not finite.all():
        bad = [target for labels in targets for target in labels][int(np.argmin(finite))]
        raise _overflow(bad.label, cfg.t_max)

    energies, e_targets = first.e_members.tolist(), first.e_targets.tolist()
    width = len(plaquettes)
    amplitudes = []
    for k, tg in enumerate(targets):
        rows = slice(k * width, (k + 1) * width)
        amplitudes.append(phased_amplitudes(energies[k], e_targets[rows], final[rows], t)[0]
                          if tg else np.ones(1))
    labels = [initial_label(config) for config in configs]

    weights = thermal_weights(energies, cfg.kt)
    # each member's labels' keys, its own first
    keys = [[first.member_keys[k], *first.target_keys[k * width:(k + 1) * width]]
            for k in range(len(configs))]
    summary = {
        "kt": cfg.kt,
        "t_evaluated": t,
        "members": labels,
        "energies": [float(e) for e in energies],
        "weights": [float(w) for w in weights],
        **keyed_mixture(geom, keys, amplitudes, weights),
    }
    if emit_density:
        names = ([label, *(target.label for target in tg)] for label, tg in zip(labels, targets))
        summary["density"] = keyed_density(geom, keys, amplitudes, weights, names).to_payload()
    return summary


def cmd_thermal(cfg: RunConfig, args) -> int:
    geom, params, drive, _, times = _build_scene(cfg)
    n = geom.n_plaquettes
    count = {"weight01": n + 1, "all": 1 << n}.get(args.members, args.members.count(",") + 1)
    if args.emit_density:
        # each member has at most one target, so the mixture at most 2 * count keys
        require_budget(16 * (2 * count) ** 2, f"the mixture density matrix over up to {2 * count} keys takes")
    require_budget(count * THERMAL_MEMBER_BYTES, f"{count} thermal members need about")
    if args.members == "weight01":
        members_cfg = [FlipConfig(0, n)] + [FlipConfig(1 << q, n) for q in range(n)]
    elif args.members == "all":
        members_cfg = [FlipConfig(bits, n) for bits in range(1 << n)]
    else:
        try:
            members_cfg = [FlipConfig(int(tok, 0), n) for tok in args.members.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --members {args.members!r}: {exc}") from exc
        repeated = [h for h, k in Counter(c.hex for c in members_cfg).items() if k > 1]
        if repeated:
            raise ConfigError(f"--members lists {', '.join(repeated)} more than once; "
                              f"each state is one member of the mixture")

    summary = _thermal_summary(geom, params, drive, members_cfg, times, cfg, args.emit_density)
    outdir = _outdir(cfg)
    write_json(outdir / "thermal.json", cfg.as_dict(), summary)
    write_csv(
        outdir / "thermal_weights.csv", cfg.as_dict(), ["member", "energy", "weight"],
        [(summary["members"], summary["energies"], summary["weights"])],
    )
    print(f"wrote thermal.json ({len(members_cfg)} members, purity {summary['purity']:.6f})")
    return EXIT_OK


def cmd_validate(cfg: RunConfig, args) -> int:
    results = run_acceptance(seed=cfg.seed)
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    payload = {
        "passed": len(results) - len(failures),
        "failed": len(failures),
        "failures": [
            {"criterion": r.criterion, "name": r.name, "detail": r.detail}
            for r in failures
        ],
    }
    outdir = _outdir(cfg)
    write_json(outdir / "validate.json", cfg.as_dict(), payload)
    write_json(outdir / "oracle_report.json", cfg.as_dict(), oracle_error_report())
    if failures:
        print(json.dumps({"failures": payload["failures"]}))
        return EXIT_CHECK_FAILED
    return EXIT_OK


def integer(raw: str) -> int:
    """A command-specific integer flag; like the config keys, it accepts 0x.. hex."""
    return int(raw, 0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitaevsim",
        description="Driven Kitaev honeycomb simulator (hbar = 1 units).",
    )
    parser.add_argument("--version", action="version", version=f"kitaevsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # --config and one flag per config key, their raw text parsed by _coerce
    run_settings = argparse.ArgumentParser(add_help=False)
    run_settings.add_argument("--config", help="key=value configuration file")
    for f in fields(RunConfig):
        run_settings.add_argument(f"--{f.name.replace('_', '-')}", help=_FIELD_HELP.get(f.name))
    # main looks up cmd_<name> at call time, so a rebound cmd_* takes effect
    commands = (
        ("lattice", "build, validate, and dump the geometry"),
        ("manifold", "enumerate flip configurations"),
        ("evolve", "first-order coefficient series"),
        ("phase", "phase decomposition and stability"),
        ("sweep", "drive-frequency sweep"),
        ("entropy", "sublattice entanglement entropy series"),
        ("correlate", "correlation formula and exact scan"),
        ("thermal", "Boltzmann mixture of evolved states"),
        ("validate", "run the acceptance property suite"),
    )
    p = {
        name: sub.add_parser(name, help=help_text, parents=[run_settings])
        for name, help_text in commands
    }
    for name in ("evolve", "phase", "sweep", "entropy"):
        p[name].add_argument("--emit-plot-script", action="store_true",
                             help="write a matplotlib script next to the main CSV")
    p["manifold"].add_argument("--n", type=integer, help="plaquette count (default nx*ny)")
    p["evolve"].add_argument("--connected-only", action="store_true",
                             help="emit only targets with nonzero drive elements")
    p["sweep"].add_argument("--omega-min", type=float, required=True)
    p["sweep"].add_argument("--omega-max", type=float, required=True)
    p["sweep"].add_argument("--omega-steps", type=integer, default=41)
    p["correlate"].add_argument("--literal-t0", action="store_true",
                                help="evaluate the formula at t0 = 0 (degenerately zero)")
    p["thermal"].add_argument("--members", default="weight01",
                              help="'weight01', 'all', or comma-separated hex bitmasks")
    p["thermal"].add_argument("--emit-density", action="store_true",
                              help="include the mixture density matrix, over the members' keys, in thermal.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return globals()[f"cmd_{args.command}"](cfg, args)
    except (ConfigError, OSError) as exc:
        # OSError: an unreadable --drive-file or an unusable --outdir
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
