"""Span tracer wrapped around kitaevsim's public functions from outside.

``Tracer.install`` replaces each listed function with a wrapper that
records one span (name, start, end, parent) per call.  A function is
rebound under every name that refers to it in every ``kitaevsim`` module,
also inside module-level tuples such as ``validation.ALL_CHECKS``; a method
is patched on its class.  Spans stay in
memory; ``metrics`` reduces them to self times, inclusive times and counts,
and ``dump`` writes them out when the run ends.

Self time is a span's duration minus the part covered by its child spans.
Each thread keeps its own span stack, so a span opened in a worker thread
of the sweep's pool has no parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, metric prefix); "Class.method" patches the class
TRACED = (
    ("lattice", "build_lattice", "lattice.build_lattice"),
    ("manifold", "flip_signature", "manifold.flip_signature"),
    ("hamiltonian", "energy_expectation", "hamiltonian.energy_expectation"),
    ("hamiltonian", "perturbation_element", "hamiltonian.perturbation_element"),
    ("hamiltonian", "build_energy_table", "hamiltonian.build_energy_table"),
    ("hamiltonian", "dense_h0", "hamiltonian.dense_h0"),
    ("hamiltonian", "apply_h0", "hamiltonian.apply_h0"),
    ("pauli", "dense_from_apply", "pauli.dense_from_apply"),
    ("perturbation", "connected_targets", "perturbation.connected_targets"),
    ("perturbation", "evolve_coefficients", "perturbation.evolve_coefficients"),
    ("perturbation", "coefficient_quadrature", "perturbation.coefficient_quadrature"),
    ("phase", "decompose", "phase.decompose"),
    ("output", "write_csv", "output.write_csv"),
    ("output", "write_json", "output.write_json"),
    ("oracle", "exact_evolve", "oracle.exact_evolve"),
    ("oracle", "evolve_fixed_substeps", "oracle.evolve_fixed_substeps"),
    ("oracle", "project_and_compare", "oracle.project_and_compare"),
    ("correlation", "correlation_exact_scan", "correlation.correlation_exact_scan"),
    ("density", "ThermalEnsemble.density", "density.thermal_density"),
    ("density", "DensityMatrix.purity", "density.purity"),
    ("density", "entropy_of_density", "density.entropy_of_density"),
    ("density", "partial_trace_matrix", "density.partial_trace_matrix"),
    ("density", "embed_active_state", "density.embed_active_state"),
    ("validation", "oracle_error_report", "validation.oracle_error_report"),
    ("cli", "cmd_evolve", "cli.cmd_evolve"),
    ("cli", "cmd_sweep", "cli.cmd_sweep"),
    ("cli", "cmd_phase", "cli.cmd_phase"),
    ("cli", "cmd_thermal", "cli.cmd_thermal"),
    ("cli", "cmd_entropy", "cli.cmd_entropy"),
    ("cli", "cmd_validate", "cli.cmd_validate"),
) + tuple(
    ("validation", f"check_{name}", f"validation.check_{k:02d}")
    for k, name in enumerate(
        ("manifold_counting", "plaquette_algebra", "closed_form_vs_quadrature",
         "tdpt_scaling", "phase_law", "density_structure", "entropy", "thermal",
         "correlation", "oracle_quality"),
        start=1,
    )
)

SELF_TIMES = (
    "manifold.flip_signature", "hamiltonian.energy_expectation",
    "hamiltonian.perturbation_element", "hamiltonian.build_energy_table",
    "perturbation.evolve_coefficients", "phase.decompose", "lattice.build_lattice",
    "perturbation.connected_targets", "perturbation.coefficient_quadrature",
    "output.write_json", "output.write_csv", "oracle.exact_evolve",
    "oracle.evolve_fixed_substeps", "oracle.project_and_compare",
    "hamiltonian.dense_h0", "pauli.dense_from_apply", "hamiltonian.apply_h0",
    "density.thermal_density", "density.purity", "density.entropy_of_density",
    "density.partial_trace_matrix", "density.embed_active_state",
)
TOTAL_TIMES = (
    "cli.cmd_sweep", "cli.cmd_phase", "cli.cmd_evolve", "cli.cmd_thermal",
    "correlation.correlation_exact_scan", "validation.oracle_error_report",
) + tuple(f"validation.check_{k:02d}" for k in range(1, 11))
CALLS = (
    "manifold.flip_signature", "hamiltonian.energy_expectation",
    "hamiltonian.perturbation_element", "perturbation.coefficient_quadrature",
    "oracle.exact_evolve", "oracle.evolve_fixed_substeps", "hamiltonian.dense_h0",
    "pauli.dense_from_apply", "hamiltonian.apply_h0", "density.entropy_of_density",
)
# Hilbert dimensions reported apart: the oracle's dense (2x3) and
# streaming (2x4) branches
SPLIT_BY_DIM = ("hamiltonian.dense_h0", "pauli.dense_from_apply", "hamiltonian.apply_h0")
SPLIT_DIMS = (4096, 65536)


def _hilbert_dim(name: str, args) -> int:
    """Hilbert dimension a dim-split call works in, from its arguments."""
    if name == "pauli.dense_from_apply":
        return int(args[1])
    return 2 ** args[0].n_sites  # dense_h0(geom, ...), apply_h0(geom, ...)


def _record_output(tracer, sid, name, args, result):
    tracer.counts["output.bytes_written"] += Path(args[0]).stat().st_size


def _record_series(tracer, sid, name, args, result):
    tracer.counts["perturbation.series"] += len(result)


def _record_targets(tracer, sid, name, args, result):
    tracer.counts["perturbation.targets_found"] += len(result)
    tracer.counts["perturbation.plaquettes_scanned"] += args[0].n_plaquettes


def _record_steps(tracer, sid, name, args, result):
    times, substeps = args[4], args[5]
    tracer.attrs[sid] = substeps * (len(times) - 1)


def _record_density(tracer, sid, name, args, result):
    tracer.counts["density.dense_bytes"] += 16 * result.dim**2


def _record_dim(tracer, sid, name, args, result):
    tracer.attrs[sid] = _hilbert_dim(name, args)


RECORDERS = {
    "output.write_csv": _record_output,
    "output.write_json": _record_output,
    "perturbation.evolve_coefficients": _record_series,
    "perturbation.connected_targets": _record_targets,
    "oracle.evolve_fixed_substeps": _record_steps,
    "density.thermal_density": _record_density,
    **{name: _record_dim for name in SPLIT_BY_DIM},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.attrs: dict[int, int] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None):
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, threading.get_ident()))
        recorder = RECORDERS.get(name)
        if recorder is not None:
            recorder(self, sid, name, args, result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every function of TRACED wherever kitaevsim refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kitaevsim" or n.startswith("kitaevsim.")]
        for mod_name, attr, name in TRACED:
            module = sys.modules[f"kitaevsim.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
                    elif isinstance(value, tuple) and any(v is original for v in value):
                        self._set(mod, key, tuple(traced if v is original else v for v in value))

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # ---------------------------------------------------------- reduce

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far."""
        children: dict[int, float] = defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, _, name, start, end, _ in self.spans:
            duration = end - start
            own = duration - children.get(sid, 0.0)
            keys = (name, f"{name}.dim{self.attrs[sid]}") if name in SPLIT_BY_DIM else (name,)
            for key in keys:
                self_s[key] += own
                total_s[key] += duration
                calls[key] += 1

        out: dict[str, float] = {}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = self_s[name]
        for name in TOTAL_TIMES:
            out[f"{name}.total_s"] = total_s[name]
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in SPLIT_BY_DIM:
            for dim in SPLIT_DIMS:
                out[f"{name}.dim{dim}.self_s"] = self_s[f"{name}.dim{dim}"]
                out[f"{name}.dim{dim}.calls"] = calls[f"{name}.dim{dim}"]

        scanned = self.counts["perturbation.plaquettes_scanned"]
        out["perturbation.series"] = self.counts["perturbation.series"]
        out["perturbation.connected_ratio"] = (
            self.counts["perturbation.targets_found"] / scanned if scanned else 0.0)
        out["output.bytes_written"] = self.counts["output.bytes_written"]
        out["density.dense_bytes"] = self.counts["density.dense_bytes"]

        # steps of the pass each exact_evolve returns, against all its passes
        names = {sid: name for sid, _, name, _, _, _ in self.spans}
        passes: dict[int, list[tuple[float, int]]] = defaultdict(list)
        rk4_steps = 0
        for sid, parent, name, start, _, _ in self.spans:
            if name == "oracle.evolve_fixed_substeps":
                rk4_steps += self.attrs[sid]
                if names.get(parent) == "oracle.exact_evolve":
                    passes[parent].append((start, self.attrs[sid]))
        out["oracle.rk4_steps"] = rk4_steps
        final = sum(max(p)[1] for p in passes.values())
        every = sum(steps for p in passes.values() for _, steps in p)
        out["oracle.final_pass_share"] = final / every if every else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path: Path) -> None:
        """Write the span tree: one record per span, start and end in
        seconds from the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        records = [
            {"id": sid, "parent": parent, "name": name,
             "start": start - t0, "end": end - t0, "thread": thread}
            for sid, parent, name, start, end, thread in self.spans
        ]
        Path(path).write_text(json.dumps({"spans": records}, separators=(",", ":")))

