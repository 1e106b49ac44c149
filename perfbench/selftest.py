"""Self-test of the benchmark's output checks.

Each workload runs at desk size; every check must pass on the real
output and fail once that output is deliberately corrupted.

    python3 -m pytest perfbench/selftest.py      # or: python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SCRATCH = HERE.parent / ".perfbench_out" / "selftest"
MINI = workloads.Sizes(label_torus=(4, 4), sweep_steps=21, drive_samples=201,
                       oracle_dense=(2, 2), oracle_stream=(2, 2), thermal=(2, 2))


def fresh_dir(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_ops(workload: str, workdir: Path) -> dict:
    """Run a workload at desk size; every check must pass on it."""
    ops = workloads.prepare(workload, 7, workdir, MINI)
    done = {}
    for op in ops:
        result = op.run()
        assert not op.failed(result), f"{workload}/{op.name} failed"
        assert op.check(result) == [], f"{workload}/{op.name}: {op.check(result)}"
        done[op.name] = (op, result)
    return done


def edit_csv(path: Path, edit) -> None:
    """Apply ``edit(rows)`` to the data rows of a program CSV in place."""
    lines = path.read_text().splitlines()
    head = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    edit(body[1:])
    path.write_text("\n".join(head + [",".join(r) for r in body]) + "\n")


def edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def fails_after(op, result, corrupt, restore_dir: Path | None = None) -> bool:
    """True if ``op``'s check reports a problem once ``corrupt`` ran; the
    files under restore_dir are put back afterwards."""
    saved = {}
    if restore_dir is not None:
        saved = {p: p.read_bytes() for p in restore_dir.rglob("*") if p.is_file()}
    try:
        changed = corrupt(result)
        return bool(op.check(result if changed is None else changed))
    finally:
        for p in restore_dir.rglob("*") if restore_dir is not None else ():
            if p.is_file() and p not in saved:
                p.unlink()
        for p, data in saved.items():
            p.write_bytes(data)


def scale_cells(cols, factor: float, row: int | None = None, match=None):
    """Edit that scales the given columns of one data row, or of all rows
    that ``match``."""
    def edit(rows):
        picked = [r for r in rows if match is None or match(r)]
        for r in picked if row is None else picked[row:row + 1]:
            for col in cols:
                r[col] = repr(float(r[col]) * factor)
    return edit


def test_label_torus_checks():
    work = fresh_dir("label_torus")
    ops = run_ops("label_torus", work)
    evolve, sweep, phase = ops["evolve"], ops["sweep"], ops["phase"]
    live = lambda r: float(r[2]) != 0.0  # noqa: E731  the connected series
    corruptions = [
        (evolve, "one coefficient off the closed form",
         lambda _: edit_csv(work / "evolve/coefficients.csv", scale_cells((2,), 1.001, row=5, match=live))),
        (evolve, "a whole series rescaled",
         lambda _: edit_csv(work / "evolve/coefficients.csv", scale_cells((2, 3), 1.01, match=live))),
        (evolve, "the initial energy shifted",
         lambda _: edit_csv(work / "evolve/energies.csv", lambda rows: rows[0].__setitem__(3, repr(float(rows[0][3]) + 0.1)))),
        (sweep, "a sweep weight off the law",
         lambda _: edit_csv(work / "sweep/sweep.csv", scale_cells((1,), 1.01, row=3))),
        (sweep, "the peak moved one grid point",
         lambda _: edit_json(work / "sweep/sweep_summary.json", lambda d: d.__setitem__("omega_peak", d["omega_peak"] + 0.7))),
        (sweep, "a shard file left behind",
         lambda _: (work / "sweep/sweep_shard_0.csv").write_text("")),
        (phase, "a custom-drive phase off by 1e-3",
         lambda _: edit_csv(work / "phase/phase.csv", scale_cells((3,), 1.001, row=9))),
    ]
    for (op, result), what, corrupt in corruptions:
        assert fails_after(op, result, corrupt, work), f"label_torus check missed: {what}"


def test_oracle_xcheck_checks():
    ops = run_ops("oracle_xcheck", fresh_dir("oracle_xcheck"))
    dense, half, undriven = ops["dense_D"], ops["stream_D/2"], ops["undriven"]

    def with_estimate(out):
        return dataclasses.replace(out[0], error_estimate=1e-6), out[1]

    def with_error(value):
        return lambda out: (out[0], dataclasses.replace(out[1], overall_max_error=value))

    def nudged_ket(out):
        geom, psi0, result = out
        kets = [k.copy() for k in result.kets]
        kets[-1][0] += 1e-5
        return geom, psi0, dataclasses.replace(result, kets=kets)

    corruptions = [
        (dense, "Richardson estimate above tol", with_estimate),
        (dense, "first-order error beyond (D t)^2", with_error(1.0)),
        (half, "no shrink when D halves", with_error(ops["stream_D"][1][1].overall_max_error)),
        (undriven, "undriven ket off exp(-iH0 t) psi0", nudged_ket),
    ]
    for (op, result), what, corrupt in corruptions:
        assert fails_after(op, result, corrupt), f"oracle_xcheck check missed: {what}"


def test_thermal_mix_checks():
    work = fresh_dir("thermal_mix")
    ops = run_ops("thermal_mix", work)
    thermal, entropy = ops["thermal"], ops["entropy"]
    doc = work / "thermal/thermal.json"

    def shift(key, delta):
        return lambda _: edit_json(doc, lambda d: d.__setitem__(key, d[key] + delta))

    corruptions = [
        (thermal, "two weights swapped",
         lambda _: edit_json(doc, lambda d: d.__setitem__("weights", d["weights"][::-1]))),
        (thermal, "a member energy changed",
         lambda _: edit_json(doc, lambda d: d["energies"].__setitem__(1, d["energies"][1] + 0.5))),
        (thermal, "trace off 1", shift("trace", -0.01)),
        (thermal, "purity off the Gram form", shift("purity", 1e-6)),
        (thermal, "mixture entropy off the K x K form", shift("mixture_entropy", 1e-6)),
        (thermal, "sublattice entropy off the reshape form", shift("sublattice_entropy", 1e-6)),
        (thermal, "sublattice entropy above n_A ln 2", shift("sublattice_entropy", 10.0)),
        (entropy, "an entangled sample",
         lambda _: edit_csv(work / "entropy/entropy.csv", lambda rows: rows[4].__setitem__(1, "1e-6"))),
    ]
    for (op, result), what, corrupt in corruptions:
        assert fails_after(op, result, corrupt, work), f"thermal_mix check missed: {what}"


def test_desk_validate_checks():
    out = fresh_dir("desk_validate")
    (out / "validate.json").write_text(json.dumps({"passed": 10, "failed": 0}))
    (out / "oracle_report.json").write_text(json.dumps({"convergence_order": 4.02}))
    assert checks.check_validate(out, 0) == []
    assert checks.check_validate(out, 1), "exit code 1 accepted"
    edit_json(out / "validate.json", lambda d: d.update(passed=9, failed=1))
    assert checks.check_validate(out, 0), "a failed criterion accepted"
    edit_json(out / "validate.json", lambda d: d.update(passed=10, failed=0))
    edit_json(out / "oracle_report.json", lambda d: d.update(convergence_order=3.85))
    assert checks.check_validate(out, 0), "convergence order 3.85 accepted"


def test_tracer_spans_and_counts():
    """Rebinding reaches calls made inside the program, self time excludes
    child spans, counts follow the call arguments, and uninstall restores."""
    import tracer as tracing
    from kitaevsim import cli, manifold

    originals = (manifold.flip_signature, cli.evolve_coefficients)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = workloads.prepare("oracle_xcheck", 7, fresh_dir("tracer"), MINI)
        for op in ops:
            tracer.call(f"op.{op.name}", op.run)
    finally:
        tracer.uninstall()
    assert (manifold.flip_signature, cli.evolve_coefficients) == originals
    m = tracer.metrics()
    assert m["oracle.exact_evolve.calls"] == 4
    assert m["oracle.evolve_fixed_substeps.calls"] >= 8
    assert 0.0 < m["oracle.final_pass_share"] < 1.0
    assert m["perturbation.series"] == 3 and m["perturbation.connected_ratio"] == 0.25
    spans = {sid: (parent, end - start) for sid, parent, _, start, end, _ in tracer.spans}
    for sid, parent, name, start, end, _ in tracer.spans:
        if name == "oracle.exact_evolve":
            children = sum(d for p, d in spans.values() if p == sid)
            assert 0.0 < children < end - start
    assert m["oracle.exact_evolve.self_s"] < sum(
        end - start for _, _, name, start, end, _ in tracer.spans if name == "oracle.exact_evolve")


def test_closed_forms_against_direct_sums():
    """The checks' own closed forms agree with brute-force evaluations."""
    t = np.linspace(0.0, 3.0, 7)
    for delta in (0.0, 1e-7, 0.8, -2.5):
        for k in range(1, len(t)):
            grid = np.linspace(0.0, t[k], 100001)
            integral = np.trapezoid(np.exp(1j * delta * grid), grid)
            assert abs(checks.unit_coefficient(delta, t[k]) - (-1j) * integral) < 1e-8
    # one bond between two sites: H0 = J sigma_0^z sigma_1^z is diagonal
    h = checks.kron_h0(2, [(0, 1, "z")], {"z": 0.5})
    assert np.allclose(np.diag(h), [0.5, -0.5, -0.5, 0.5]) and np.count_nonzero(h) == 4
    h = checks.kron_h0(3, [(0, 2, "x")], {"x": 1.0})
    assert h[0b000, 0b101] == 1.0 and h[0b010, 0b111] == 1.0 and np.count_nonzero(h) == 8


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok  {name}")
