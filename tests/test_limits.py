"""Size limits fail cleanly: one Hilbert-cap message, manifold and density budgets."""

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


@pytest.mark.parametrize(
    "argv",
    [["thermal", "--emit-density"], ["thermal", "--emit-density", "--members", "all"]],
    ids=["thermal", "thermal-members-all"],
)
def test_cli_prints_the_cap_message(argv, tmp_path, capsys):
    code = cli.main([*argv, "--nx", "3", "--ny", "3", "--samples", "3",
                     "--outdir", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == (
        f"computation failed: {cap_message(GEOM_3X3.n_sites)}\n"
    )
    assert not (tmp_path / "out").exists()


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


@pytest.fixture
def unsized_samples(monkeypatch):
    """Time samples and series that cost no bytes, so that the density
    matrix alone meets the one budget every size check shares."""
    monkeypatch.setattr(cli, "SAMPLE_BYTES", 0)
    monkeypatch.setattr(cli, "SERIES_SAMPLE_BYTES", 0)


@pytest.mark.usefixtures("unsized_samples")
class TestEvolveDensityBudget:
    # 3x3 without --connected-only: one target per plaquette, so the
    # active-basis density matrix is 10x10 complex, 1600 bytes
    ARGV = ["evolve", "--nx", "3", "--ny", "3", "--samples", "3"]

    def test_90x90_fits_and_91x91_does_not(self):
        assert 16 * (90 * 90 + 1) ** 2 <= DENSE_DENSITY_BUDGET_BYTES
        assert 16 * (91 * 91 + 1) ** 2 > DENSE_DENSITY_BUDGET_BYTES

    def test_over_budget_exits_3_before_any_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(density, "DENSE_DENSITY_BUDGET_BYTES", 1599)
        code = cli.main([*self.ARGV, "--outdir", str(tmp_path / "out")])
        assert code == 3
        # no dense matrix is held: the count is the entries' binary size
        assert "10x10 active-basis density matrix's entries take 1600 bytes" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_at_budget_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(density, "DENSE_DENSITY_BUDGET_BYTES", 1600)
        assert cli.main([*self.ARGV, "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "density.json").exists()

    def test_connected_only_is_unaffected(self, tmp_path, monkeypatch):
        # --connected-only keeps the initial state and its one target: 2x2
        monkeypatch.setattr(density, "DENSE_DENSITY_BUDGET_BYTES", 64)
        assert cli.main([*self.ARGV, "--connected-only", "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "density.json").exists()

    def test_density_matrix_checks_the_budget(self, monkeypatch):
        monkeypatch.setattr(density, "DENSE_DENSITY_BUDGET_BYTES", 63)
        with pytest.raises(RuntimeError, match="64 bytes"):
            density_matrix(ActiveState(("a", "b"), np.zeros(2), np.array([1.0, 0.0], dtype=complex), 1.0))


@pytest.mark.usefixtures("unsized_samples")
class TestEvolveDensityBudgetBeforeWork:
    """The active-basis budget is checked before any series is evolved."""

    @pytest.mark.parametrize(
        "extra, budget",
        [([], 1599), (["--connected-only"], 63)],
        ids=["all-plaquettes", "connected-only"],
    )
    def test_over_budget_exits_3_before_evolving(self, extra, budget, tmp_path, monkeypatch):
        def no_evolution(*args, **kwargs):
            raise AssertionError("series were evolved before the budget check")

        monkeypatch.setattr(density, "DENSE_DENSITY_BUDGET_BYTES", budget)
        monkeypatch.setattr(cli, "evolve_coefficients", no_evolution)
        argv = TestEvolveDensityBudget.ARGV + extra
        assert cli.main([*argv, "--outdir", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()


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
