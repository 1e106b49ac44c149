"""Pinned SHA-256 digests of the deterministic outputs.

The digests were taken from the per-site loop implementation of the label
engine (flip signatures, bond energies and drive elements in Python
loops).  Any rewrite of those kernels must reproduce every output byte:
the coefficient series, the energy table, the active-basis density
matrix, the frequency sweep and the exponential-drive phase analysis.
The thermal pins, taken from the per-entry list encoding of the dense
mixture matrix, hold ``thermal --emit-density`` to the same bytes.  The
12x12 pins were taken from the per-cell CSV writer and the block-encoded
JSON arrays, before either wrote repeated rows and columns once.

The runs write to the relative directory ``out`` under a fresh working
directory, so the configuration recorded in each header, and with it the
header's hash, is the same on every machine.
"""

import hashlib

import pytest

from kitaevsim import cli

COMMON = ["--jx", "1.0", "--jy", "0.8", "--jz", "1.2", "--d", "0.01", "--omega", "0.8"]

# name -> lattice and run flags shared by its commands
SCENES = {
    "4x4": ["--nx", "4", "--ny", "4", "--initial", "0x5a3c", "--samples", "33"],
    # 3x3 has a two-dimensional flip kernel: distinct configurations share kets
    "3x3": ["--nx", "3", "--ny", "3", "--initial", "0x1b5", "--samples", "33"],
    # twelve labelled bonds: the energy sum's order shows in its last bits
    "12x4": ["--nx", "12", "--ny", "4", "--initial", "0x1", "--samples", "17"],
    # 145^2 density rows: the JSON array spans six blocks of JSON_BLOCK_ROWS
    "12x12": ["--nx", "12", "--ny", "12", "--initial", "0x9e3779b97f4a7c15f39cc0605cedc834",
              "--samples", "33"],
    "2x3-hilbert": ["--nx", "2", "--ny", "3", "--initial", "0x2d", "--samples", "17",
                    "--engine", "hilbert"],
    # dense 256 x 256 mixture matrices from sixteen members and from two
    "2x2-all": ["--nx", "2", "--ny", "2", "--samples", "17", "--members", "all"],
    "2x2-pair": ["--nx", "2", "--ny", "2", "--samples", "17", "--members", "0x0,0x1"],
}

COMMANDS = {
    "evolve": (["evolve"], ("coefficients.csv", "energies.csv", "density.json")),
    "sweep": (["sweep", "--omega-min", "-7", "--omega-max", "7", "--omega-steps", "41"],
              ("sweep.csv", "sweep_summary.json")),
    "phase": (["phase"], ("phase.csv", "intervals.csv", "levels.csv")),
    "thermal": (["thermal", "--kt", "0.5", "--emit-density"],
                ("thermal.json", "thermal_weights.csv")),
}

CASES = [
    *((s, c) for s in ("4x4", "3x3", "12x4") for c in ("evolve", "sweep", "phase")),
    ("12x12", "evolve"),
    ("2x3-hilbert", "evolve"),
    ("2x2-all", "thermal"),
    ("2x2-pair", "thermal"),
]

# (scene, command, file) -> sha256 of the file's bytes
DIGESTS = {
    ("4x4", "evolve", "coefficients.csv"):
        "910d1da8d1f24e66ee9a3af4c8971e10c9851a53631677c5ba634d51158e3a46",
    ("4x4", "evolve", "energies.csv"):
        "ebb5d70ed305252915cfb213a7a62aaa2a6b399afadb7e8631c0a60553861764",
    ("4x4", "evolve", "density.json"):
        "24b6a159545019cf5bae46f9e5fafb41fffd30e8b4136d826c486adf4f006c44",
    ("4x4", "sweep", "sweep.csv"):
        "5533a3cda708bf4d731f30e9d023704ca0b5aca055a25c48386e95c497e52a35",
    ("4x4", "sweep", "sweep_summary.json"):
        "b898a44a9c46cc916167587cd9432a68162b0af1472fe4e8f5b2baf717dad21c",
    ("4x4", "phase", "phase.csv"):
        "daba4c80fd717cfe70e0cfebe062412c6c14b386fb03d1b0ecf0c9203b5cac85",
    ("4x4", "phase", "intervals.csv"):
        "78ebc4388b88b52d6132505d48e40dbdcde20e81f6c51e1fc434562a7aa54400",
    ("4x4", "phase", "levels.csv"):
        "3fba8f2708b2bd990bb5032b1fcddccd55f5f4b107669febc078e2f0657776bb",
    ("3x3", "evolve", "coefficients.csv"):
        "2940a1476135a6e97da0d697a28bfea86194ac111524822e62a2bd69d038a26c",
    ("3x3", "evolve", "energies.csv"):
        "ad6d85733e063345d98c5948c1cdfcac8eb481369712bc0d98455bde84920d71",
    ("3x3", "evolve", "density.json"):
        "65bf951198d2436c79d0662ad3f7276a9e6d12c2005c60226c1d49d3d5dace7c",
    ("3x3", "sweep", "sweep.csv"):
        "c881e98e630e00b9f14931ed0699315436aaaa958d5eb858360a0e5710c2b0d7",
    ("3x3", "sweep", "sweep_summary.json"):
        "c9a090fdcbc4fa3d930494a893262d1bae3bc8ee73c170de6f6755dea40b57ce",
    ("3x3", "phase", "phase.csv"):
        "991f45529ab0d75bd9dfc364ca20124a94680585e18d4119d426026eb74057a9",
    ("3x3", "phase", "intervals.csv"):
        "f6876cbe7b83d04c3a16338ec61498f2fd86d92a719ff89017d7d2326d4f45a3",
    ("3x3", "phase", "levels.csv"):
        "8d4cafe62200097836b622f32333d275bdfc354905b232a613a45f5ea0341ea2",
    ("12x4", "evolve", "coefficients.csv"):
        "e6f8a018d0c3f830bd4dcfd46905f9ca1c981ed33b928e2c87a3c694f6ff938c",
    ("12x4", "evolve", "energies.csv"):
        "5251f52ee6d4c4f068a1f0b99d86763284dfacfedb5c4904bb78a65038a56e60",
    ("12x4", "evolve", "density.json"):
        "08d091364017abd56ca09a4c19825ebf6022b69d07babb5003150357d8426b83",
    ("12x4", "sweep", "sweep.csv"):
        "758fb775a0a579708803ab6cc5d4f97e6d32e26f34b05136f95debb9a09705fd",
    ("12x4", "sweep", "sweep_summary.json"):
        "84c37f62a94ac60884a6a9588a95df94c4718ff4e84e9890d2629e546317b3b4",
    ("12x4", "phase", "phase.csv"):
        "997333b8b986c97f896ac8a24458a4d62184b0d7b5053e0fa1fe65bb9586fd4d",
    ("12x4", "phase", "intervals.csv"):
        "24c51a2073970bd163eb9fa9c9addc4ff3b65279307e8c2eaac353dfd17c8263",
    ("12x4", "phase", "levels.csv"):
        "5f61263d92d31c8c73ae2ab6c99742cc62d900fc9555e4235e8b0b3ad30c643f",
    ("12x12", "evolve", "coefficients.csv"):
        "24045a3128f3701979d11cfc79c1ee11458e17a9359cd37d39c2b6b0ee046b2f",
    ("12x12", "evolve", "energies.csv"):
        "f111d93a81eb05737f779a595fff828c7d49cffee855b096d0eb81c02292bcd7",
    ("12x12", "evolve", "density.json"):
        "b9f42ff3f5112d68b1f332711e4afaf71ee389cc3521388b59bb2555531346cc",
    ("2x3-hilbert", "evolve", "coefficients.csv"):
        "069d2ff18461377b963d3daf66ae32c156dd7523995eb50593a1f737cdef897f",
    ("2x3-hilbert", "evolve", "energies.csv"):
        "33bce2c0569f776b5183ea36893c973388692ec6c207a4ca11ec7a8c0778870a",
    ("2x3-hilbert", "evolve", "density.json"):
        "7cec697e3f1b6eb75bb509ea7c80f2a8fe80fa725c336cd331c6656d3f640ce2",
    ("2x2-all", "thermal", "thermal.json"):
        "dc86cd6026015d09c6408a87848921b29f6edc8e45c2af148adb7edd882e03e8",
    ("2x2-all", "thermal", "thermal_weights.csv"):
        "0a4e3da42774af218b8966b7e21d494f2f519a6878568039b3f80f74e735570b",
    ("2x2-pair", "thermal", "thermal.json"):
        "1957946aacb461c5d9a167882ab2c3946b90c537381c2566af6884033ac2242c",
    ("2x2-pair", "thermal", "thermal_weights.csv"):
        "e67274897821f9a492a63006b3b5c4f03cba8cf29a93f0d5907697a279924508",
}


@pytest.mark.parametrize("scene,command", CASES)
def test_outputs_match_pinned_digests(scene, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv, files = COMMANDS[command]
    outdir = f"out/{command}"
    assert cli.main([*argv, *SCENES[scene], *COMMON, "--outdir", outdir]) == 0
    for name in files:
        digest = hashlib.sha256((tmp_path / outdir / name).read_bytes()).hexdigest()
        assert digest == DIGESTS[(scene, command, name)], name
