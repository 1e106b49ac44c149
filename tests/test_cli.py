import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from kitaevsim import cli
from kitaevsim.density import embed_active_state
from kitaevsim.hamiltonian import CouplingParams
from kitaevsim.lattice import build_lattice
from kitaevsim.manifold import FlipConfig, build_product_ket
from kitaevsim.perturbation import DriveSpec, connected_targets, evolve_coefficients
from kitaevsim.phase import decompose


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "kitaevsim.cli", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


class TestExitCodes:
    def test_unknown_flag_exits_2_with_usage(self):
        proc = run_cli("evolve", "--no-such-flag")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_unknown_subcommand_exits_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_bad_lattice_exits_2(self, tmp_path):
        proc = run_cli("evolve", "--nx", "1", "--outdir", str(tmp_path))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_bad_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx: 2\n")
        proc = run_cli("evolve", "--config", str(cfg), "--outdir", str(tmp_path))
        assert proc.returncode == 2

    def test_computation_failure_exits_3(self, tmp_path):
        # the drive on plaquette 1 of 2x2 connects no target to phase
        proc = run_cli(
            "phase", "--nx", "2", "--ny", "2", "--plaquette", "1", "--outdir", str(tmp_path),
            "--samples", "3",
        )
        assert proc.returncode == 3
        assert "computation failed: no connected targets" in proc.stderr

    def test_memory_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(cfg, args):
            raise MemoryError("cannot allocate the density matrix")

        monkeypatch.setattr(cli, "cmd_thermal", out_of_memory)
        code = cli.main(["thermal", "--samples", "3", "--outdir", str(tmp_path)])
        assert code == 3
        assert "computation failed: cannot allocate" in capsys.readouterr().err

    def test_missing_drive_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = cli.main(["phase", "--drive-file", str(missing), "--d", "1",
                         "--outdir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(missing) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--config", "--drive-file"])
    def test_input_that_is_not_utf8_exits_2(self, flag, tmp_path, capsys):
        # the 0xff byte is not UTF-8; the same file otherwise reads and runs
        path = tmp_path / "input.txt"
        path.write_bytes(b"d = 1\n\xff\n" if flag == "--config" else b"0,0.01,0\n\xff,0.01,0\n")
        code = cli.main(["phase", flag, str(path), "--d", "1", "--outdir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(path) in err
        assert "0xff" in err
        assert not (tmp_path / "out").exists()

    def test_outdir_that_is_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = cli.main(["phase", "--samples", "4", "--outdir", str(taken)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(taken) in err
        assert taken.read_text() == "not a directory\n"

    def test_rebound_command_runs_on_the_next_call(self, tmp_path, monkeypatch):
        # the parser is built once, so main must not keep the first cmd_phase
        argv = ["phase", "--samples", "4", "--outdir", str(tmp_path)]
        assert cli.main(argv) == 0
        calls = []

        def rebound(cfg, args):
            calls.append(cfg.samples)
            return 3

        monkeypatch.setattr(cli, "cmd_phase", rebound)
        assert cli.main(argv) == 3
        assert calls == [4]

    @pytest.mark.parametrize("n", [3, 6])
    def test_entropy_beyond_the_hilbert_cap_writes_exact_zeros(self, n, tmp_path):
        # the one target differs from the initial state on one A site only
        code = cli.main(["entropy", "--nx", str(n), "--ny", str(n), "--samples", "9",
                         "--outdir", str(tmp_path)])
        assert code == 0
        rows = [
            l.split(",") for l in (tmp_path / "entropy.csv").read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        assert len(rows) == 9
        assert [float(s_a) for _, s_a in rows] == [0.0] * 9

    def test_entropy_without_connected_targets_exits_3(self, tmp_path, capsys):
        # on 2x2 the drive on plaquette 1 connects no target to the default initial state
        code = cli.main(["entropy", "--plaquette", "1", "--samples", "3", "--outdir", str(tmp_path)])
        assert code == 3
        assert "no connected targets" in capsys.readouterr().err
        assert not (tmp_path / "entropy.csv").exists()

    def test_commands_that_need_a_series_give_one_error_without_a_target(self, tmp_path, capsys):
        # on 2x2 the drive on plaquette 1 connects no target to the default initial state
        errors = set()
        for command in (["phase"], ["sweep", "--omega-min", "0", "--omega-max", "1"], ["entropy"]):
            out = tmp_path / command[0]
            code = cli.main([*command, "--plaquette", "1", "--samples", "3", "--outdir", str(out)])
            assert code == 3
            errors.add(capsys.readouterr().err)
            assert not out.exists()
        assert len(errors) == 1

    @pytest.mark.parametrize("samples", ["2", "3"])
    def test_phase_with_too_few_samples_exits_3_before_output(self, samples, tmp_path, capsys):
        # the t = 0 sample is always singular
        out = tmp_path / "out"
        code = cli.main(["phase", "--samples", samples, "--outdir", str(out)])
        assert code == 3
        assert "non-singular samples" in capsys.readouterr().err
        assert not out.exists()

    def test_phase_with_four_samples_writes_all_files(self, tmp_path):
        assert cli.main(["phase", "--samples", "4", "--outdir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "intervals.csv", "levels.csv", "phase.csv"
        ]

    @pytest.mark.parametrize("command", ["lattice", "manifold", "correlate", "thermal", "validate"])
    def test_plot_script_flag_exits_2_where_nothing_is_plotted(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--emit-plot-script", "--outdir", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --emit-plot-script" in capsys.readouterr().err
        assert not out.exists()

    def test_thermal_at_the_hilbert_cap_runs(self, tmp_path):
        # 2x4 is the 16-site cap; thermal holds no 2^n ket and runs beyond
        # it too (the next test)
        proc = run_cli(
            "thermal", "--nx", "2", "--ny", "4", "--outdir", str(tmp_path),
            "--samples", "3",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "thermal.json").read_text())
        assert doc["trace"] == pytest.approx(1.0, abs=1e-12)
        assert len(doc["members"]) == 9

    @pytest.mark.parametrize("members,count", [("weight01", 10), ("all", 512)])
    def test_thermal_beyond_the_hilbert_cap_runs(self, members, count, tmp_path):
        code = cli.main(["thermal", "--nx", "3", "--ny", "3", "--members", members,
                         "--samples", "3", "--outdir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "thermal.json").read_text())
        assert len(doc["members"]) == count
        assert doc["trace"] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < doc["purity"] < 1.0
        # each member's one target differs from its base on one A site
        assert doc["sublattice_entropy"] == pytest.approx(doc["mixture_entropy"], abs=1e-12)

    def test_thermal_members_all_at_2x4_stays_under_100_mb(self, tmp_path):
        # the peak resident set of one child process, measured by its parent
        script = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'kitaevsim.cli', 'thermal', '--nx', '2',"
            f" '--ny', '4', '--members', 'all', '--outdir', {str(tmp_path)!r}], check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) < 100 * 1024  # KiB
        assert len(json.loads((tmp_path / "thermal.json").read_text())["members"]) == 256

    @pytest.mark.parametrize(
        "extra", [[], ["--plaquette", "1", "--members", "all"], ["--emit-density", "--members", "all"]],
        ids=["targets", "no-targets", "emit-density"],
    )
    def test_thermal_builds_no_hilbert_space_vector(self, extra, tmp_path, monkeypatch):
        def no_ket(*args, **kwargs):
            raise AssertionError("thermal built a 2**n vector")

        # every kitaevsim module's name for either builder
        builders = (build_product_ket, embed_active_state)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "kitaevsim":
                for key, value in list(vars(module).items()):
                    if any(value is f for f in builders):
                        monkeypatch.setattr(module, key, no_ket)
        code = cli.main(["thermal", "--nx", "2", "--ny", "3", *extra, "--samples", "3",
                         "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "thermal.json").exists()

    def test_thermal_emit_density_holds_less_than_its_dense_matrix(self, tmp_path):
        # 2x4 --members all: 256 members over 512 keys, a 4 MiB dense
        # matrix; the first run leaves the imports and caches in place, the
        # second is traced
        argv = ["thermal", "--nx", "2", "--ny", "4", "--samples", "17", "--members", "all",
                "--emit-density", "--outdir", str(tmp_path)]
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 512 * 512, f"peak {peak} bytes"
        assert json.loads((tmp_path / "thermal.json").read_text())["density"]["dim"] == 512

    def test_thermal_emit_density_over_memory_budget_exits_3(self, tmp_path, monkeypatch, capsys):
        # 65537 weight01 members hold at most 131074 keys, whose mixture
        # would take 16 * 131074**2 bytes; sized before any member is listed
        forbid_member_work(monkeypatch)
        out = tmp_path / "out"
        code = cli.main(["thermal", "--nx", "256", "--ny", "256", "--emit-density",
                         "--samples", "3", "--outdir", str(out)])
        assert code == 3
        assert "274886295616 bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("nx,ny,members", [(2, 4, "weight01"), (8, 8, "0x0,0x1")],
                             ids=["2x4-weight01", "8x8-pair"])
    def test_thermal_emit_density_beyond_the_hilbert_cap_runs(self, nx, ny, members, tmp_path):
        code = cli.main(["thermal", "--nx", str(nx), "--ny", str(ny), "--members", members,
                         "--emit-density", "--samples", "3", "--outdir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "thermal.json").read_text())
        assert doc["density"]["dim"] <= 2 * len(doc["members"])

    def test_thermal_emit_density_keys_flip_kernel_twins_once(self, tmp_path):
        # 3x3's two-dimensional flip kernel makes twins of every member's
        # ket and of its target's, so 512 members hold 256 keys
        code = cli.main(["thermal", "--nx", "3", "--ny", "3", "--members", "all",
                         "--emit-density", "--samples", "3", "--outdir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "thermal.json").read_text())
        written = doc["density"]
        assert len(doc["members"]) == 512 and len(written["basis"]) == 256
        rho = np.array(written["entries"]).reshape(-1).view(complex).reshape(256, 256)
        assert float(np.trace(rho).real) == pytest.approx(doc["trace"], abs=1e-12)
        assert float(np.sum(np.abs(rho) ** 2)) == pytest.approx(doc["purity"], abs=1e-12)

    @pytest.mark.parametrize(
        "flag,value",
        [("--jx", "nan"), ("--omega", "inf"), ("--d", "-inf"), ("--d", "-1"),
         ("--t-max", "nan"), ("--t-max", "inf"), ("--kt", "nan"), ("--scan-tol", "nan"),
         ("--initial", "foo")],
    )
    def test_bad_config_value_exits_2_before_output(self, flag, value, tmp_path):
        proc = run_cli("evolve", f"{flag}={value}", "--samples", "3", "--outdir", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "grid",
        [("-1", "1", "0"), ("-1", "1", "-2"), ("nan", "1", "5"), ("-1", "inf", "5")],
    )
    def test_sweep_bad_omega_grid_exits_2(self, grid, tmp_path):
        omega_min, omega_max, steps = grid
        proc = run_cli(
            "sweep", f"--omega-min={omega_min}", f"--omega-max={omega_max}",
            f"--omega-steps={steps}", "--samples", "5", "--outdir", str(tmp_path),
        )
        assert proc.returncode == 2, proc.stderr
        assert "configuration error: --omega-" in proc.stderr
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("members", ["foo", "0x100", "0x1,,0x2"])
    def test_thermal_bad_members_exits_2(self, members, tmp_path):
        proc = run_cli(
            "thermal", "--members", members, "--samples", "3", "--outdir", str(tmp_path),
        )
        assert proc.returncode == 2, proc.stderr
        assert "--members" in proc.stderr
        assert not (tmp_path / "thermal.json").exists()

    @pytest.mark.parametrize(
        "members, repeated",
        [("0x0,0x0,0x1", "0x0"), ("0x1,0x2,1", "0x1"), ("0x3,3,0x0,0", "0x3, 0x0")],
    )
    def test_thermal_repeated_member_exits_2_naming_it(self, members, repeated, tmp_path, capsys):
        # a repeated state would count once per listing in the mixture
        code = cli.main(["thermal", "--members", members, "--samples", "3",
                         "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"configuration error: --members lists {repeated} more than once; "
            "each state is one member of the mixture\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", [5, 6], ids=["5x5", "6x6"])
    def test_thermal_member_list_over_budget_exits_3_before_listing(
        self, n, tmp_path, monkeypatch, capsys
    ):
        # 2**(n*n) members of THERMAL_MEMBER_BYTES each
        forbid_member_work(monkeypatch)
        members = 1 << (n * n)
        out = tmp_path / "out"
        code = cli.main(["thermal", "--members", "all", "--nx", str(n), "--ny", str(n),
                         "--outdir", str(out)])
        assert code == 3
        assert f"need about {members * cli.THERMAL_MEMBER_BYTES} bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "phase", "entropy", "thermal"])
    def test_overflowing_t_max_exits_3_before_output(self, command, tmp_path, capsys):
        # detuning * t and E * t_max overflow to inf, and sin(inf) is NaN
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = cli.main([command, "--t-max", "1e308", "--outdir", str(out)])
        assert code == 3
        assert "t_max = 1e+308" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "phase", "entropy", "thermal"])
    def test_overflowing_t_max_prints_only_the_exit_message(self, command, tmp_path, capfd):
        # a fresh interpreter prints numpy's RuntimeWarnings to its stderr,
        # which the child inherits from this process's captured descriptor
        proc = subprocess.run([sys.executable, "-m", "kitaevsim.cli", command, "--nx", "2", "--ny", "2",
                               "--t-max", "1e308", "--outdir", str(tmp_path / "out")])
        assert proc.returncode == 3
        lines = capfd.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("computation failed: t_max = 1e+308 overflows")


def forbid_member_work(monkeypatch):
    """Make any FlipConfig after the scene's initial one, and any
    first-order work, fail the test."""

    def no_first_order_work(*args, **kwargs):
        raise AssertionError("first-order work ran before the size checks")

    monkeypatch.setattr(cli, "connected_targets", no_first_order_work)
    # the scene's initial configuration is the one FlipConfig allowed; the
    # thermal member list (2**n_plaquettes of them for "all") must wait
    made = []
    real_flip_config = cli.FlipConfig

    def one_flip_config(*args, **kwargs):
        made.append(args)
        if len(made) > 1:
            no_first_order_work()
        return real_flip_config(*args, **kwargs)

    monkeypatch.setattr(cli, "FlipConfig", one_flip_config)


class TestDriveFileCoverage:
    T_MAX = 2.0 * np.pi

    def _drive_file(self, tmp_path, t_first, t_last):
        t = np.linspace(t_first, t_last, 201)
        b = 0.01 * np.exp(-0.8j * t)
        path = tmp_path / "drive.csv"
        np.savetxt(path, np.c_[t, b.real, b.imag], delimiter=",")
        return path

    def _evolve(self, tmp_path, drive_file):
        return run_cli(
            "evolve", "--drive-file", str(drive_file), "--d", "1",
            "--t-max", repr(self.T_MAX), "--samples", "9",
            "--outdir", str(tmp_path / "out"),
        )

    @pytest.mark.parametrize("t_first,t_last", [(0.0, 3.0), (0.5, 2.0 * np.pi)])
    def test_short_file_exits_2_naming_both_ends(self, tmp_path, t_first, t_last):
        proc = self._evolve(tmp_path, self._drive_file(tmp_path, t_first, t_last))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert f"[{t_first:.17g}, {t_last:.17g}]" in proc.stderr

    def test_file_covering_exactly_0_to_t_max_runs(self, tmp_path):
        proc = self._evolve(tmp_path, self._drive_file(tmp_path, 0.0, self.T_MAX))
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("row", ["nan,0.01,0", "1.5,inf,0", "2.5,0.01,nan"])
    def test_non_finite_sample_exits_2_before_output(self, tmp_path, row):
        path = self._drive_file(tmp_path, 0.0, self.T_MAX)
        lines = path.read_text().splitlines()
        lines.insert(3, row)
        path.write_text("\n".join(lines) + "\n")
        proc = run_cli(
            "phase", "--drive-file", str(path), "--d", "1", "--nx", "2", "--ny", "2",
            "--t-max", repr(self.T_MAX), "--samples", "9", "--outdir", str(tmp_path / "out"),
        )
        assert proc.returncode == 2, proc.stderr
        assert "non-finite" in proc.stderr and "data row 4" in proc.stderr
        assert not (tmp_path / "out" / "phase.csv").exists()

    @pytest.mark.parametrize(
        "times,row", [((0.0, 1.0, 1.0, 7.0), 3), ((0.0, 2.0, 1.5, 7.0), 3)],
        ids=["repeated", "decreasing"],
    )
    def test_times_not_increasing_exit_2_before_output(self, tmp_path, times, row):
        path = tmp_path / "drive.csv"
        np.savetxt(path, np.c_[times, np.full(4, 0.01), np.zeros(4)], delimiter=",")
        proc = run_cli(
            "phase", "--drive-file", str(path), "--d", "1", "--nx", "2", "--ny", "2",
            "--t-max", repr(self.T_MAX), "--samples", "9", "--outdir", str(tmp_path / "out"),
        )
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr
        assert f"increase strictly; data row {row} " in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evolve", "phase"])
    def test_drive_file_without_unit_d_exits_2_before_output(self, tmp_path, command):
        # the samples carry the amplitude, and the default d = 0.01 would
        # scale the drive element by it a second time
        proc = run_cli(
            command, "--drive-file", str(self._drive_file(tmp_path, 0.0, self.T_MAX)),
            "--t-max", repr(self.T_MAX), "--samples", "9", "--outdir", str(tmp_path / "out"),
        )
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr
        assert "d must be 1" in proc.stderr and "d = 0.01" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_phase_with_a_drive_file_does_not_import_numpy_ma(self, tmp_path):
        # np.union1d's unique imports numpy.ma on its first call
        script = (
            "import sys\n"
            "from kitaevsim import cli\n"
            f"code = cli.main(['phase', '--drive-file', {str(self._drive_file(tmp_path, 0.0, self.T_MAX))!r},"
            f" '--d', '1', '--t-max', {repr(self.T_MAX)!r}, '--samples', '9',"
            f" '--outdir', {str(tmp_path / 'out')!r}])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["0", "False"]

    def test_sweep_rejects_drive_file(self, tmp_path):
        # the sweep scans the exponential drive's omega; a custom drive has none
        proc = run_cli(
            "sweep", "--drive-file", str(self._drive_file(tmp_path, 0.0, self.T_MAX)),
            "--d", "1", "--omega-min", "-1", "--omega-max", "1", "--omega-steps", "5",
            "--samples", "9", "--outdir", str(tmp_path / "out"),
        )
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "--drive-file" in proc.stderr
        assert not (tmp_path / "out" / "sweep.csv").exists()


# (nx, ny, jx, jy, jz, d, initial, t_max, samples, omega_min, omega_max, omega_steps)
SWEEP_CASES = {
    "label_2x2": (2, 2, 0.1, 0.1, 0.1, 0.05, 0x0, 20.0, 11, -0.6, 0.2, 17),
    "label_2x3": (2, 3, 0.7, 1.1, 0.9, 0.03, 0x2D, 6.0, 21, -4.0, 4.0, 33),
    "d_zero": (2, 2, 1.0, 1.0, 1.0, 0.0, 0x0, 6.0, 7, -1.0, 1.0, 9),
    "descending": (2, 2, 0.2, 0.3, 0.4, 0.05, 0x0, 15.0, 31, 0.5, -0.7, 25),
}


def _reference_sweep_lines(
    nx, ny, jx, jy, jz, d, initial, t_max, samples, omega_min, omega_max, omega_steps
):
    """sweep.csv data lines from one evolve_coefficients run per omega."""
    geom = build_lattice(nx, ny)
    config = FlipConfig(initial, geom.n_plaquettes)
    times = np.linspace(0.0, t_max, samples)
    targets = connected_targets(geom, CouplingParams(jx, jy, jz, d=d), config, 0)
    k = samples - 1
    rows = []
    for omega in np.linspace(omega_min, omega_max, omega_steps):
        series = evolve_coefficients(
            geom, CouplingParams(jx, jy, jz, d=d, omega=omega),
            DriveSpec.exponential(d, omega), config, targets, times,
        )[0]
        phase = decompose(series)
        weight = float(np.abs(series.values[k]) ** 2)
        predicted = (float("nan") if phase.singular[k]
                     else series.omega0 - float(phase.angle[k]) / float(times[k]))
        rows.append((float(omega), weight, predicted))
    rows.sort(key=lambda r: r[0])
    return [",".join(f"{x:.17g}" for x in row) for row in rows]


class TestSweepCommand:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_rows_match_per_omega_evolution(self, case, tmp_path):
        (nx, ny, jx, jy, jz, d, initial, t_max, samples,
         omega_min, omega_max, omega_steps) = SWEEP_CASES[case]
        proc = run_cli(
            "sweep", "--nx", str(nx), "--ny", str(ny),
            "--jx", repr(jx), "--jy", repr(jy), "--jz", repr(jz), "--d", repr(d),
            "--initial", hex(initial), "--t-max", repr(t_max), "--samples", str(samples),
            "--omega-min", repr(omega_min), "--omega-max", repr(omega_max),
            "--omega-steps", str(omega_steps), "--jobs", "2", "--outdir", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        lines = [
            l for l in (tmp_path / "sweep.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert lines[0] == "omega,weight_at_t_max,predicted_resonance"
        assert lines[1:] == _reference_sweep_lines(*SWEEP_CASES[case])
        assert not list(tmp_path.glob("sweep_shard_*"))


class TestManifoldCommand:
    def test_class_sizes_and_total(self, tmp_path):
        proc = run_cli("manifold", "--n", "4", "--outdir", str(tmp_path))
        assert proc.returncode == 0
        assert "1, 4, 6, 4, 1" in proc.stdout
        assert "total states: 16" in proc.stdout
        body = [
            line for line in (tmp_path / "configs.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert body[0] == "bitmask,weight"
        assert len(body) == 17
        assert body[1] == "0x0,0"


class TestLatticeCommand:
    def test_geometry_dump_and_report(self, tmp_path):
        proc = run_cli("lattice", "--nx", "2", "--ny", "2", "--outdir", str(tmp_path))
        assert proc.returncode == 0
        assert "[PASS]" in proc.stdout and "[FAIL]" not in proc.stdout
        doc = json.loads((tmp_path / "geometry.json").read_text())
        assert len(doc["sites"]) == 8

    def test_kernel_warning_on_3x3(self, tmp_path):
        proc = run_cli("lattice", "--nx", "3", "--ny", "3", "--outdir", str(tmp_path))
        assert proc.returncode == 0
        assert "[WARN] signature_injectivity" in proc.stdout


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "nx = 2\nny = 2\njx = 0.3\njy = 0.3\njz = 0.3\n"
            "d = 0.05\nomega = 0.4\nsamples = 9\nt_max = 2.0\n"
            "initial = 0x0\n"
        )
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        p1 = run_cli("evolve", "--config", str(cfg), "--outdir", str(out1))
        p2 = run_cli(
            "evolve", "--config", str(cfg), "--outdir", str(out2),
            "--samples", "5",
        )
        assert p1.returncode == 0 and p2.returncode == 0
        rows1 = [l for l in (out1 / "coefficients.csv").read_text().splitlines()
                 if not l.startswith("#")]
        rows2 = [l for l in (out2 / "coefficients.csv").read_text().splitlines()
                 if not l.startswith("#")]
        # flags win over the file: fewer samples per series
        assert len(rows2) < len(rows1)

    def test_identical_config_gives_byte_identical_output(self, tmp_path):
        out = tmp_path / "det"
        args = ("evolve", "--outdir", str(out), "--samples", "9", "--t-max", "2.0")
        assert run_cli(*args).returncode == 0
        first = (out / "coefficients.csv").read_bytes()
        assert run_cli(*args).returncode == 0
        assert (out / "coefficients.csv").read_bytes() == first

    def test_header_block_present(self, tmp_path):
        out = tmp_path / "h"
        run_cli("evolve", "--outdir", str(out), "--samples", "5", "--t-max", "1.0")
        lines = (out / "coefficients.csv").read_text().splitlines()
        assert lines[0].startswith("# kitaevsim v")
        assert lines[1] == "# convention: hbar=1"
        assert any(l.startswith("# config_hash:") for l in lines[:4])


class TestPipelineCommands:
    def test_phase_and_sweep_outputs(self, tmp_path):
        out = tmp_path / "p"
        proc = run_cli(
            "phase", "--outdir", str(out), "--d", "1.0", "--omega", "-3.0",
            "--t-max", "6.283185307179586", "--samples", "201",
        )
        assert proc.returncode == 0
        assert (out / "phase.csv").exists()
        assert (out / "intervals.csv").exists()
        assert (out / "levels.csv").exists()
        intervals = [
            l for l in (out / "intervals.csv").read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        assert len(intervals) == 2  # one growth arc, one decay arc over a period
        assert intervals[0].endswith("GROWING")
        assert intervals[1].endswith("DECAYING")

        proc = run_cli(
            "sweep", "--outdir", str(out), "--omega-min", "-0.6",
            "--omega-max", "0.2", "--omega-steps", "17", "--jobs", "2",
            "--jx", "0.1", "--jy", "0.1", "--jz", "0.1", "--d", "0.05",
            "--t-max", "20.0", "--samples", "11",
        )
        assert proc.returncode == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        # omega0 = -0.2 at these couplings and the grid contains it; the
        # transition weight must peak at resonance within one grid step
        assert summary["omega0"] == pytest.approx(-0.2, abs=1e-12)
        assert abs(summary["omega_peak"] - summary["omega0"]) <= 0.05 + 1e-12

    def test_entropy_correlate_thermal(self, tmp_path):
        out = tmp_path / "e"
        proc = run_cli(
            "entropy", "--outdir", str(out), "--d", "0.2", "--omega", "-1.0",
            "--jx", "0.3", "--jy", "0.3", "--jz", "0.3", "--samples", "5",
            "--t-max", "2.0",
        )
        assert proc.returncode == 0
        rows = [
            l for l in (out / "entropy.csv").read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        assert len(rows) == 5

        proc = run_cli(
            "correlate", "--outdir", str(out), "--d", "0.05", "--t-max", "0.5",
            "--samples", "5", "--scan-tol", "1e-6",
        )
        assert proc.returncode == 0
        assert "selection rule" in proc.stdout
        assert (out / "correlations.csv").exists()

        proc = run_cli(
            "thermal", "--outdir", str(out), "--kt", "1.0", "--d", "0.05",
            "--t-max", "1.0", "--samples", "5", "--members", "0x0,0x1",
        )
        assert proc.returncode == 0
        doc = json.loads((out / "thermal.json").read_text())
        assert doc["trace"] == pytest.approx(1.0, abs=1e-10)
        assert len(doc["weights"]) == 2

        # kt = inf is valid and means uniform weights
        proc = run_cli(
            "thermal", "--outdir", str(out), "--kt", "inf", "--d", "0.05",
            "--t-max", "1.0", "--samples", "5", "--members", "0x0,0x1",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "thermal.json").read_text())["weights"] == [0.5, 0.5]

    def test_evolve_connected_only_without_a_target_writes_the_initial_ket(self, tmp_path):
        # on 2x2 the drive on plaquette 1 connects no target to the default initial state
        lone, full = tmp_path / "lone", tmp_path / "full"
        argv = ["evolve", "--plaquette", "1", "--samples", "5"]
        assert cli.main([*argv, "--connected-only", "--outdir", str(lone)]) == 0
        assert cli.main([*argv, "--outdir", str(full)]) == 0

        def rows(path):
            return [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]

        assert rows(lone / "coefficients.csv") == []
        assert len(rows(full / "coefficients.csv")) == 4 * 5
        assert rows(lone / "energies.csv") == rows(full / "energies.csv")[:1]
        density = json.loads((lone / "density.json").read_text())["density"]
        assert density == {"basis": ["cfg:0x0"], "dim": 1, "entries": [[1.0, 0.0]]}

    def test_emit_plot_script(self, tmp_path):
        out = tmp_path / "plot"
        proc = run_cli(
            "evolve", "--outdir", str(out), "--samples", "5", "--t-max", "1.0",
            "--emit-plot-script",
        )
        assert proc.returncode == 0
        assert (out / "plot_coefficients.py").exists()


class TestValidateCommand:
    # the real checks run in tests/test_acceptance.py; here only the
    # command wiring (exit codes, failure list) is exercised

    def test_exit_zero_when_all_pass(self, tmp_path, monkeypatch):
        from kitaevsim import cli
        from kitaevsim.validation import CheckResult

        monkeypatch.setattr(
            cli, "run_acceptance",
            lambda seed: [CheckResult(1, "stub", True, "ok")],
        )
        monkeypatch.setattr(cli, "oracle_error_report", lambda: {"targets": []})
        code = cli.main(["validate", "--outdir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["failed"] == 0

    def test_exit_one_with_failure_list(self, tmp_path, monkeypatch, capsys):
        from kitaevsim import cli
        from kitaevsim.validation import CheckResult

        monkeypatch.setattr(
            cli, "run_acceptance",
            lambda seed: [
                CheckResult(1, "stub", True, "ok"),
                CheckResult(2, "broken", False, "bad"),
            ],
        )
        monkeypatch.setattr(cli, "oracle_error_report", lambda: {"targets": []})
        code = cli.main(["validate", "--outdir", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr().out
        assert "[FAIL] criterion  2" in captured
        assert json.loads((tmp_path / "validate.json").read_text())["failed"] == 1


class TestHexIntegerFlags:
    """The command-specific integer flags accept hex like the config keys."""

    @staticmethod
    def _outputs(path):
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    @pytest.mark.parametrize(
        "argv, flag, hex_value, dec_value",
        [
            (["manifold"], "--n", "0x4", "4"),
            (["sweep", "--omega-min", "-1", "--omega-max", "1", "--samples", "5"],
             "--omega-steps", "0x5", "5"),
        ],
        ids=["manifold-n", "sweep-omega-steps"],
    )
    def test_hex_and_decimal_give_identical_outputs(
        self, argv, flag, hex_value, dec_value, tmp_path, monkeypatch
    ):
        outputs = []
        for value in (hex_value, dec_value):
            # the same relative outdir, since every header records it
            (tmp_path / value).mkdir()
            monkeypatch.chdir(tmp_path / value)
            assert cli.main([*argv, flag, value, "--outdir", "out"]) == 0
            outputs.append(self._outputs(tmp_path / value / "out"))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [["manifold", "--n", "0xg"],
         ["sweep", "--omega-min", "-1", "--omega-max", "1", "--omega-steps", "five"]],
        ids=["manifold-n", "sweep-omega-steps"],
    )
    def test_bad_integer_exits_2(self, argv, tmp_path):
        proc = run_cli(*argv, "--outdir", str(tmp_path))
        assert proc.returncode == 2
        assert "invalid integer value" in proc.stderr
        assert not list(tmp_path.iterdir())
