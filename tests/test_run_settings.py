"""Run settings reach RunConfig the same way from a flag and a config file."""

import argparse
import re
from dataclasses import fields

import pytest

from kitaevsim import cli
from kitaevsim.output import config_hash

# one raw value per RunConfig field, each different from the default; every
# int is hex, and each value is valid on the default 2x2 torus
RAW = {
    "nx": "0x3",
    "ny": "0x3",
    "jx": "0.25",
    "jy": "0.5",
    "jz": "0.75",
    "d": "0.02",
    "omega": "-0.8",
    "drive_file": "drive.csv",
    "initial": "0xd",
    "plaquette": "0x1",
    "t_max": "3.5",
    "samples": "0x11",
    "scan_tol": "1e-7",
    "outdir": "elsewhere",
    "seed": "0x7",
    "jobs": "0x2",
    "kt": "inf",
}

FIELD_FLAGS = {
    "--nx", "--ny", "--jx", "--jy", "--jz", "--d", "--omega", "--drive-file",
    "--initial", "--plaquette", "--t-max", "--samples", "--scan-tol", "--outdir",
    "--seed", "--jobs", "--kt",
}
COMMAND_FLAGS = {
    "lattice": set(),
    "manifold": {"--n"},
    "evolve": {"--connected-only", "--emit-plot-script"},
    "phase": {"--emit-plot-script"},
    "sweep": {"--omega-min", "--omega-max", "--omega-steps", "--emit-plot-script"},
    "entropy": {"--emit-plot-script"},
    "correlate": {"--literal-t0"},
    "thermal": {"--members", "--emit-density"},
    "validate": set(),
}


def test_raw_values_cover_every_field():
    assert set(RAW) == {f.name for f in fields(cli.RunConfig)}


@pytest.mark.parametrize("name", [f.name for f in fields(cli.RunConfig)])
def test_flag_and_config_key_give_the_same_config(name, tmp_path):
    raw = RAW[name]
    path = tmp_path / "run.cfg"
    path.write_text(f"{name} = {raw}\n")
    parser = cli.build_parser()
    flag = f"--{name.replace('_', '-')}={raw}"
    from_flag = cli.load_config(parser.parse_args(["evolve", flag]))
    from_file = cli.load_config(parser.parse_args(["evolve", "--config", str(path)]))
    bare = cli.load_config(argparse.Namespace(config=str(path)))
    assert from_flag == from_file == bare
    assert getattr(from_flag, name) != getattr(cli.RunConfig(), name)
    assert config_hash(from_flag.as_dict()) == config_hash(from_file.as_dict())


def test_flag_wins_over_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nx = 3\nseed = 0x10\n")
    args = cli.build_parser().parse_args(["evolve", "--config", str(path), "--nx", "0x4"])
    cfg = cli.load_config(args)
    assert (cfg.nx, cfg.seed) == (4, 16)


@pytest.mark.parametrize("argv", [["--nx", "0x"], ["--scan-tol", "nan"], ["--kt", "warm"]])
def test_bad_flag_value_exits_2(argv, tmp_path, capsys):
    code = cli.main(["evolve", *argv, "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_has_the_config_flags_and_its_own(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in sub.choices[command]._actions for s in a.option_strings}
    common = {"-h", "--help", "--config"}
    assert flags == common | FIELD_FLAGS | COMMAND_FLAGS[command]


def test_every_help_text_renders_and_lists_the_config_flags():
    # argparse formats help lazily, so a malformed help string fails only here
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(COMMAND_FLAGS)
    top = parser.format_help()
    assert all(command in top for command in COMMAND_FLAGS)
    for command, subparser in sub.choices.items():
        listed = set(re.findall(r"--[a-z0-9-]+", subparser.format_help()))
        assert listed == {"--help", "--config"} | FIELD_FLAGS | COMMAND_FLAGS[command]


# run settings that were removed, each with a value the code once accepted
REMOVED = {"engine": "label", "quad_tol": "1e-10", "evolve_tol": "1e-9"}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_config_key_exits_2(name, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"{name} = {REMOVED[name]}\n")
    code = cli.main(["evolve", "--config", str(path), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_flag_exits_2(name, tmp_path, capsys):
    flag = f"--{name.replace('_', '-')}"
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", flag, REMOVED[name], "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
