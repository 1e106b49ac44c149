"""``sweep`` evaluates its omega grid in (omega x samples) blocks; each row
must be bit for bit the row of the per-omega loop in ``reference.py``.

The cases reach the closed form's branches: detuning exactly zero,
|detuning * t| on either side of the 1e-4 series threshold, a drive of
amplitude zero (every sample singular), descending ranges and single
omegas, with blocks of one row up to the whole grid.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim import cli
from kitaevsim.hamiltonian import drive_element
from kitaevsim.perturbation import RESONANCE_SERIES_THRESHOLD
from reference import loop_sweep_rows

couplings = st.floats(-2.0, 2.0, allow_nan=False)


def scene(nx, ny, jx, jy, jz, d, initial, t_max, samples):
    """The flags of a sweep scene, with its omega0, drive element and times."""
    cfg = cli.RunConfig(nx=nx, ny=ny, jx=jx, jy=jy, jz=jz, d=d, initial=initial,
                        t_max=t_max, samples=samples)
    geom, _, _, config, times, coeffs = cli._evolved(cfg, True)
    flags = [f"--nx={nx}", f"--ny={ny}", f"--jx={jx!r}", f"--jy={jy!r}", f"--jz={jz!r}",
             f"--d={d!r}", f"--initial={initial:#x}", f"--t-max={t_max!r}", f"--samples={samples}"]
    return flags, coeffs[0].omega0, drive_element(geom, config, 0, d), times


def run_sweep(outdir, flags, omega_min, omega_max, omega_steps):
    code = cli.main(["sweep", *flags, f"--omega-min={omega_min!r}", f"--omega-max={omega_max!r}",
                     f"--omega-steps={omega_steps}", "--outdir", str(outdir)])
    assert code == 0
    lines = [line for line in (outdir / "sweep.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert lines[0] == "omega,weight_at_t_max,predicted_resonance"
    return lines[1:], json.loads((outdir / "sweep_summary.json").read_text())


def assert_rows_match(lines, summary, rows):
    assert lines == [",".join(f"{x:.17g}" for x in row) for row in rows]
    peak = max(rows, key=lambda r: r[1])
    got = (summary["omega_peak"], summary["weight_at_peak"], summary["predicted_shifted_peak"])
    assert [float(x).hex() for x in got] == [x.hex() for x in peak]


@st.composite
def sweeps(draw):
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    scene_args = (
        nx, ny, draw(couplings), draw(couplings), draw(couplings),
        draw(st.sampled_from([0.0, 0.01]) | st.floats(1e-6, 1.0)),
        draw(st.integers(0, 2 ** (nx * ny) - 1)),
        draw(st.floats(0.1, 50.0)), draw(st.integers(2, 70)),
    )
    grid = draw(st.sampled_from(["resonance", "threshold", "random", "single"]))
    return scene_args, grid, draw(st.integers(1, 40)), draw(st.floats(-5.0, 5.0)), \
        draw(st.floats(-5.0, 5.0)), draw(st.booleans())


@settings(database=None, max_examples=60, deadline=None)
@given(case=sweeps(), block=st.sampled_from([1, 7, 64, cli.SWEEP_BLOCK_ENTRIES]))
def test_blocked_rows_match_the_per_omega_loop(case, block, tmp_path_factory):
    scene_args, grid, steps, lo, hi, descending = case
    flags, omega0, m, times = scene(*scene_args)
    t_max = float(times[-1])
    if grid == "resonance":
        # an odd grid centred on omega0; its one-row form has detuning 0 exactly
        lo, hi, steps = omega0 - abs(lo), omega0 + abs(lo), 2 * steps - 1
    elif grid == "threshold":
        # |detuning * t_max| lands within rounding of the series threshold
        edge = RESONANCE_SERIES_THRESHOLD / t_max
        lo, hi = omega0 - edge, omega0 + edge
    elif grid == "single":
        lo = hi = omega0
        steps = 1
    else:
        lo, hi = omega0 + lo, omega0 + hi
    if descending:
        lo, hi = max(lo, hi), min(lo, hi)
    with mock.patch.object(cli, "SWEEP_BLOCK_ENTRIES", block):
        lines, summary = run_sweep(tmp_path_factory.mktemp("sweep"), flags, lo, hi, steps)
    rows = loop_sweep_rows(times, omega0, m, np.linspace(lo, hi, steps))
    assert_rows_match(lines, summary, rows)


# about one weight in a thousand tells C pow(w, 2) from numpy's w * w: the
# 5001-point grid holds several of them
@pytest.mark.parametrize("nx,ny,omega_steps", [(4, 4, 101), (3, 3, 101), (12, 4, 101), (2, 2, 5001)])
def test_pinned_grids_match_the_per_omega_loop(nx, ny, omega_steps, tmp_path):
    flags, omega0, m, times = scene(nx, ny, 1.0, 0.8, 1.2, 0.01, 0x5 % 2 ** (nx * ny), 6.25, 65)
    lines, summary = run_sweep(tmp_path, flags, -7.0, 7.0, omega_steps)
    assert_rows_match(lines, summary, loop_sweep_rows(times, omega0, m, np.linspace(-7.0, 7.0, omega_steps)))


def test_a_nan_series_fails_as_the_loop_does(tmp_path, capsys):
    # detuning * t overflows: the series is NaN past t = 0, and continuing
    # the branch from a NaN argument is an error, in the loop and in blocks
    flags, omega0, m, times = scene(2, 2, 1.0, 1.0, 1.0, 0.01, 0, 2.0 * math.pi, 9)
    with pytest.raises(ValueError, match="NaN") as loop:
        loop_sweep_rows(times, omega0, m, [0.0, 1e308])
    with pytest.raises(ValueError, match="NaN") as blocked:
        cli._sweep_rows(times, omega0, m, np.array([0.0, 1e308]))
    assert str(blocked.value) == str(loop.value)
    code = cli.main(["sweep", *flags, "--omega-min", "0", "--omega-max", "1e308",
                     "--omega-steps", "2", "--outdir", str(tmp_path / "out")])
    assert code == 3
    assert "NaN" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["nan-row-first", "nan-row-last"])
def test_a_series_nan_only_at_t_max_is_written_and_max_picks_the_peak(side, tmp_path):
    # at t_max = 1e300 a detuning of 1.81e8 overflows detuning * t at the
    # last sample only: the row's weight is NaN, and max() over the rows
    # keeps it as the peak only when it comes first
    flags, omega0, m, times = scene(2, 2, 1.0, 1.0, 1.0, 0.01, 0, 1e300, 65)
    lo, hi = omega0 + side * 1.81e8, omega0 - side
    lines, summary = run_sweep(tmp_path, flags, lo, hi, 5)
    rows = loop_sweep_rows(times, omega0, m, np.linspace(lo, hi, 5))
    assert math.isnan(rows[0 if side < 0 else -1][1])
    assert_rows_match(lines, summary, rows)
