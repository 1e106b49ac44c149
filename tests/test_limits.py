"""Size limits fail cleanly: one Hilbert-cap message, manifold and density budgets."""

import json

import numpy as np
import pytest

from kitaevsim import cli, density
from kitaevsim.correlation import correlation_exact_scan
from kitaevsim.density import DENSE_DENSITY_BUDGET_BYTES, ActiveState, density_matrix, reduced_entropy
from kitaevsim.hamiltonian import CouplingParams
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, build_product_ket
from kitaevsim.oracle import exact_evolve
from kitaevsim.pauli import HILBERT_CAP_SITES, require_hilbert
from kitaevsim.perturbation import DriveSpec, connected_targets

GEOM_3X3 = build_lattice(3, 3)  # 18 sites, over the 16-site cap
PARAMS = CouplingParams(1.0, 1.0, 1.0, d=0.01)


def cap_message(n_sites: int) -> str:
    with pytest.raises(ValueError) as info:
        require_hilbert(n_sites)
    return str(info.value)


def test_require_hilbert_passes_at_the_cap():
    require_hilbert(HILBERT_CAP_SITES)
    message = cap_message(HILBERT_CAP_SITES + 1)
    assert "Hilbert cap" in message and "lattice too large" in message


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_product_ket(GEOM_3X3, FlipConfig(0, 9)),
        lambda: exact_evolve(
            GEOM_3X3, PARAMS, DriveSpec.exponential(0.01, 0.5),
            np.ones(1, dtype=complex), [0.0, 1.0],
        ),
        lambda: correlation_exact_scan(
            GEOM_3X3, PARAMS, DriveSpec.exponential(0.01, 0.5),
            FlipConfig(0, 9), [(0, 1)], [("x", "x")], 1.0,
        ),
        lambda: reduced_entropy(GEOM_3X3, np.ones(1, dtype=complex)),
    ],
    ids=["build_product_ket", "exact_evolve", "correlation_exact_scan", "reduced_entropy"],
)
def test_library_entry_points_raise_the_cap_message(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == cap_message(GEOM_3X3.n_sites)


class TestManifoldLimit:
    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("manifold enumerated configurations over its limit")

        monkeypatch.setattr(cli, "enumerate_weight_class", fail)

    @pytest.mark.parametrize(
        "argv,rows",
        [(["--n", "21"], 1 << 21), (["--nx", "6", "--ny", "6"], 1 << 36)],
        ids=["n21", "6x6"],
    )
    def test_over_the_limit_exits_3_before_output(self, argv, rows, tmp_path, capsys):
        code = cli.main(["manifold", *argv, "--outdir", str(tmp_path / "out")])
        assert code == 3
        assert f"{rows} configurations" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_limit_is_2_to_the_20_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "enumerate_weight_class", lambda n, k: [])
        assert cli.MANIFOLD_MAX_PLAQUETTES == 20
        code = cli.main(["manifold", "--n", "20", "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "configs.csv").exists()


class TestDensityPayloadBudget:
    """The budget holds the support block a density payload writes, 16
    bytes an entry, not the dim x dim matrix."""

    def test_91x91_evolve_writes_at_most_two_labels(self, tmp_path):
        # its 8282 x 8282 active-basis matrix would be over the budget
        assert 16 * (91 * 91 + 1) ** 2 > DENSE_DENSITY_BUDGET_BYTES
        code = cli.main(["evolve", "--nx", "91", "--ny", "91", "--samples", "3",
                         "--outdir", str(tmp_path)])
        assert code == 0
        written = json.loads((tmp_path / "density.json").read_text())["density"]
        assert written["dim"] == 91 * 91 + 1
        assert len(written["basis"]) <= 2

    @pytest.mark.parametrize("over", [1, 0], ids=["over", "at"])
    def test_to_payload_sizes_the_support_block(self, over, monkeypatch):
        # three of ten amplitudes are nonzero: a 3 x 3 block of 144 bytes
        amps = np.zeros(10, dtype=complex)
        amps[[1, 4, 8]] = [0.6, 0.64j, -0.48]
        rho = density_matrix(ActiveState(tuple(f"s{k}" for k in range(10)), np.zeros(10), amps, 1.0))
        monkeypatch.setattr(density, "DENSE_DENSITY_BUDGET_BYTES", 144 - over)
        if over:
            with pytest.raises(RuntimeError, match="3x3 support block of the density matrix takes 144 bytes"):
                rho.to_payload()
        else:
            assert rho.to_payload()["basis"] == ["s1", "s4", "s8"]


def forbid(monkeypatch, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before the sample budget check")

    monkeypatch.setattr(cli, name, fail)


class TestSampleBudget:
    """Time samples, series and sweep rows are sized before the work."""

    SWEEP = ["sweep", "--omega-min", "0", "--omega-max", "1"]

    @pytest.mark.parametrize(
        "argv",
        [["evolve"], ["phase"], SWEEP, ["entropy"], ["correlate"], ["thermal"]],
        ids=["evolve", "phase", "sweep", "entropy", "correlate", "thermal"],
    )
    def test_samples_over_budget_exit_3_before_the_lattice(self, argv, tmp_path, monkeypatch, capsys):
        nbytes = 1000 * cli.SAMPLE_BYTES
        monkeypatch.setattr(density, "DENSE_DENSITY_BUDGET_BYTES", nbytes - 1)
        forbid(monkeypatch, "build_lattice")
        out = tmp_path / "out"
        assert cli.main([*argv, "--samples", "1000", "--outdir", str(out)]) == 3
        assert f"1000 time samples and 0 first-order series need about {nbytes} bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("over", [1, 0], ids=["over", "at"])
    def test_series_are_sized_once_the_targets_are_known(self, over, tmp_path, monkeypatch, capsys):
        # 3x3 over every plaquette: nine series of 100 samples
        nbytes = 100 * (cli.SAMPLE_BYTES + 9 * cli.SERIES_SAMPLE_BYTES)
        monkeypatch.setattr(density, "DENSE_DENSITY_BUDGET_BYTES", nbytes - over)
        if over:
            forbid(monkeypatch, "evolve_coefficients")
        out = tmp_path / "out"
        code = cli.main(["evolve", "--nx", "3", "--ny", "3", "--samples", "100", "--outdir", str(out)])
        if over:
            assert code == 3
            assert f"need about {nbytes} bytes" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            assert (out / "coefficients.csv").exists()

    def test_thermal_sizes_each_member_before_evolving_it(self, tmp_path, monkeypatch, capsys):
        # every member's series are sized before the one pass over all members
        geom = build_lattice(2, 2)
        series = len(connected_targets(geom, PARAMS, FlipConfig(0, 4), 0))
        nbytes = 100 * (cli.SAMPLE_BYTES + series * cli.SERIES_SAMPLE_BYTES)
        monkeypatch.setattr(density, "DENSE_DENSITY_BUDGET_BYTES", nbytes - 1)
        forbid(monkeypatch, "first_order")
        out = tmp_path / "out"
        assert cli.main(["thermal", "--members", "0x0", "--samples", "100", "--outdir", str(out)]) == 3
        assert f"{series} first-order series need about {nbytes} bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("over", [1, 0], ids=["over", "at"])
    def test_sweep_rows_are_sized_before_any_series(self, over, tmp_path, monkeypatch, capsys):
        # 1000 rows outweigh the default 65 samples and their one series
        nbytes = 1000 * cli.SWEEP_ROW_BYTES
        monkeypatch.setattr(density, "DENSE_DENSITY_BUDGET_BYTES", nbytes - over)
        if over:
            forbid(monkeypatch, "evolve_coefficients")
        out = tmp_path / "out"
        code = cli.main([*self.SWEEP, "--omega-steps", "1000", "--outdir", str(out)])
        if over:
            assert code == 3
            assert f"1000 sweep rows need about {nbytes} bytes" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            assert (out / "sweep.csv").exists()

    def test_the_budget_bounds_the_samples_unpatched(self, tmp_path, monkeypatch, capsys):
        forbid(monkeypatch, "build_lattice")
        out = tmp_path / "out"
        assert cli.main(["phase", "--samples", "100000000", "--outdir", str(out)]) == 3
        assert f"need about {100000000 * cli.SAMPLE_BYTES} bytes" in capsys.readouterr().err
        assert not out.exists()


class TestScanTolFloor:
    """A scan_tol the exact scan cannot meet exits 2 before any work:
    below the floor, rounding holds its error estimate up and the scan
    would run until killed."""

    @pytest.mark.parametrize("tol", ["1e-300", "1e-16"])
    def test_below_the_floor_exits_2_before_any_file(self, tol, tmp_path, monkeypatch, capsys):
        forbid(monkeypatch, "build_lattice")
        out = tmp_path / "out"
        assert cli.main(["correlate", "--scan-tol", tol, "--outdir", str(out)]) == 2
        assert f"scan_tol must be at least {cli.SCAN_TOL_FLOOR:g}, got {float(tol)}" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_the_floor_itself_is_accepted(self):
        cli.RunConfig(scan_tol=cli.SCAN_TOL_FLOOR).validate()
        with pytest.raises(cli.ConfigError, match="scan_tol"):
            cli.RunConfig(scan_tol=cli.SCAN_TOL_FLOOR / 2).validate()
