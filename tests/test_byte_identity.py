"""Pinned SHA-256 digests of the deterministic outputs.

The digests were taken from the per-site loop implementation of the label
engine (flip signatures, bond energies and drive elements in Python
loops).  Any rewrite of those kernels must reproduce every output byte:
the coefficient series, the energy table, the active-basis density
matrix, the frequency sweep and the exponential-drive phase analysis.
The thermal pins, taken from the per-entry list encoding of the dense
mixture matrix, hold ``thermal --emit-density`` to the same bytes.  The
two ``thermal.json`` pins were re-taken once when ``trace``, ``purity``,
``mixture_entropy`` and ``sublattice_entropy`` moved from the member kets'
Gram and reduced matrices to keyed label amplitudes, after every other
byte of both files, the ``density`` payload included, was checked equal
to that of the code before the switch and the four values within 1e-15
of it.  The
12x12 pins were taken from the per-cell CSV writer and the block-encoded
JSON arrays, before either wrote repeated rows and columns once.  Every
pin was re-taken once when the ``engine``, ``quad_tol`` and
``evolve_tol`` settings left the headers, after each file's bytes below
the header (the document without ``meta`` for JSON) were checked equal
to those of the code before the removal; the 2x3 scene, until then run
on the hilbert engine, was checked against that code's label engine.
The 2x3 ``correlate`` pin holds the exact oracle's correlation scan; it
was taken from the oracle kernel that gathered one index row per group,
before its matvec moved to output chunks.  The five ``density.json`` pins
and the two ``thermal.json`` pins were re-taken when each ``density``
payload moved from the whole basis and all dim x dim entries to the
basis states where some ket is nonzero and the block over them;
:func:`test_support_payload_rebuilds_the_dense_layout` holds the new
files to the old layout's entries bit for bit and rebuilds the old
layout from the same state to the old digests.  The two ``thermal.json``
pins were re-taken once more when ``thermal --emit-density`` moved its
mixture from the members' 2**n kets to their keys' basis: the same test
lifts each new payload back to the Hilbert basis, holds it to the
mixture of the members' kets within 1e-12, and rebuilds the dense layout
of that mixture to its dense-layout digests; both
``thermal_weights.csv`` pins held unedited.

The runs write to the relative directory ``out`` under a fresh working
directory, so the configuration recorded in each header, and with it the
header's hash, is the same on every machine.
"""

import hashlib
import json

import numpy as np
import pytest

from kitaevsim import cli
from kitaevsim.density import ActiveState, DensityMatrix, embed_active_state, keyed_density
from kitaevsim.manifold import FlipConfig, build_product_ket, excite
from kitaevsim.output import write_json

import reference

COMMON = ["--jx", "1.0", "--jy", "0.8", "--jz", "1.2", "--d", "0.01", "--omega", "0.8"]

# name -> lattice and run flags shared by its commands
SCENES = {
    "4x4": ["--nx", "4", "--ny", "4", "--initial", "0x5a3c", "--samples", "33"],
    # 3x3 has a two-dimensional flip kernel: distinct configurations share kets
    "3x3": ["--nx", "3", "--ny", "3", "--initial", "0x1b5", "--samples", "33"],
    # twelve labelled bonds: the energy sum's order shows in its last bits
    "12x4": ["--nx", "12", "--ny", "4", "--initial", "0x1", "--samples", "17"],
    # 144 plaquettes: 36-hex-digit labels, and a density.json over 2 of
    # its 145 labels
    "12x12": ["--nx", "12", "--ny", "12", "--initial", "0x9e3779b97f4a7c15f39cc0605cedc834",
              "--samples", "33"],
    "2x3": ["--nx", "2", "--ny", "3", "--initial", "0x2d", "--samples", "17"],
    # 577 labels, 14 MB of density.json in the dense layout; the dense
    # layout test's alone
    "24x24": ["--nx", "24", "--ny", "24", "--samples", "33"],
    # mixtures over the members' keys, from sixteen members and from two
    "2x2-all": ["--nx", "2", "--ny", "2", "--samples", "17", "--members", "all"],
    "2x2-pair": ["--nx", "2", "--ny", "2", "--samples", "17", "--members", "0x0,0x1"],
    # mixtures whose 4096-state Hilbert matrix is checked a row block at a time
    "2x3-pair": ["--nx", "2", "--ny", "3", "--samples", "17", "--members", "0x0,0x1"],
    "2x3-weight01": ["--nx", "2", "--ny", "3", "--samples", "17"],
}

COMMANDS = {
    "evolve": (["evolve"], ("coefficients.csv", "energies.csv", "density.json")),
    "sweep": (["sweep", "--omega-min", "-7", "--omega-max", "7", "--omega-steps", "41"],
              ("sweep.csv", "sweep_summary.json")),
    "phase": (["phase"], ("phase.csv", "intervals.csv", "levels.csv")),
    "thermal": (["thermal", "--kt", "0.5", "--emit-density"],
                ("thermal.json", "thermal_weights.csv")),
    "correlate": (["correlate"], ("correlations.csv",)),
}

CASES = [
    *((s, c) for s in ("4x4", "3x3", "12x4") for c in ("evolve", "sweep", "phase")),
    ("12x12", "evolve"),
    ("2x3", "evolve"),
    ("2x3", "correlate"),
    ("2x2-all", "thermal"),
    ("2x2-pair", "thermal"),
]

# (scene, command, file) -> sha256 of the file's bytes
DIGESTS = {
    ("4x4", "evolve", "coefficients.csv"):
        "4a77c7aee09c29d593dce25fba6791ad7ceaf371de1de4dd191122bdf711beb4",
    ("4x4", "evolve", "energies.csv"):
        "d29a6a0d17054f04506dbf9f01430a18ad4f60478e7c52dabdd2be6c7553597b",
    ("4x4", "evolve", "density.json"):
        "f0816a99e2bf22234e4e443bd6e271efb429543f25ffb1893a2e70ebfc4e408b",
    ("4x4", "sweep", "sweep.csv"):
        "6e534bf44ae38ca351c92e6e296f0fee049ae12837dadfab72dc03de7e0d1089",
    ("4x4", "sweep", "sweep_summary.json"):
        "3aec6f0565602aefff68a22ba6176815f3977930ed0b402a8e6eb7f45757f9d3",
    ("4x4", "phase", "phase.csv"):
        "45c51133e0b91e33ef735e3885dac9482e7edd2c6ac3853bbf9986b2e18dc7d2",
    ("4x4", "phase", "intervals.csv"):
        "eadcf82750a569fa0f5c4a551b35cfb469f9e687433ab3138a501404e6db8ba6",
    ("4x4", "phase", "levels.csv"):
        "6fae044d8004af73f6ff802187449d03779dd2c3ef69c2e332818b737cf47ab4",
    ("3x3", "evolve", "coefficients.csv"):
        "11fbc22add763f134103e824063bc64903e022147475ef1feaf69837cbbe0c15",
    ("3x3", "evolve", "energies.csv"):
        "5d205c49adb9ca54d1b4b33847ec297622143057cf28f7ba1d307e627ba8a25b",
    ("3x3", "evolve", "density.json"):
        "a95195171a885e7e386a1e1d26c72594f39d2afa1150b4ab985ca3ab404fa32b",
    ("3x3", "sweep", "sweep.csv"):
        "5896cec623d03df7cb5ff8d66b38ff55b9580a96a4c51c982b6efe27afda6837",
    ("3x3", "sweep", "sweep_summary.json"):
        "57d77a628017ea01fd9d7cad6b5e41a3b980fbec7d448f99daac02ca4fb96302",
    ("3x3", "phase", "phase.csv"):
        "c6bd2e5c8f78259de249179cc746a465ed461347ad5ae6e5fdac5a470026be88",
    ("3x3", "phase", "intervals.csv"):
        "60a661fd2235b4c2e2c5e1109a194b7e4a1b0342d8f665d055c01cb7d3a160aa",
    ("3x3", "phase", "levels.csv"):
        "f3c3f0bb2e43ed2728679548306b635f86c61a35e66e252826ef40478b7f3c03",
    ("12x4", "evolve", "coefficients.csv"):
        "9b12de2f450dea02183945d2cc1cf8c148fe0ea56a8ae927cf42d8b58706dd36",
    ("12x4", "evolve", "energies.csv"):
        "ee301e9153299010c062db51fd9b6bac056911ab80d94c44673084a2b03decf6",
    ("12x4", "evolve", "density.json"):
        "c032cb12dc58fd9e0b4afffabd5198d24bd8e7c4adf756319c431c91fa63b438",
    ("12x4", "sweep", "sweep.csv"):
        "a03431b5b7feb37d1b954cdfd3cc59b265e0e26ad067eedb93b22600b1a3da98",
    ("12x4", "sweep", "sweep_summary.json"):
        "931fe7721cf31ece4840101a88e35c9dfb365949ac767f94b55118ebbac8e827",
    ("12x4", "phase", "phase.csv"):
        "c34fe60b17ace38c01931e51423aebca987e62cd196982d06541a27197007022",
    ("12x4", "phase", "intervals.csv"):
        "368f1bb061b2b00e0d1267ee560268399e351bbd91fb545d5493e05ee6e5a42d",
    ("12x4", "phase", "levels.csv"):
        "d77b526bb38fcf17cffe43501dee281e5ed8fc9efcf7c76405fcedc48aa11a20",
    ("12x12", "evolve", "coefficients.csv"):
        "e60c58d168e3f7c2735ad6ef98f4b661237c0337cb6c4aa75aecbddece89b5ce",
    ("12x12", "evolve", "energies.csv"):
        "0d0a062a07037363ec93d273f2506161757f65fd952ce4d960447af3a9eab346",
    ("12x12", "evolve", "density.json"):
        "ea638a69fe8470fbbef0c8b7f72624a37eb19b3a3b5a05d94df5a308d154d694",
    ("2x3", "evolve", "coefficients.csv"):
        "1f808541dd17aa06c6f0ef000bf2e140ace692c3c9d3eaa4d4d1afb4148f2521",
    ("2x3", "evolve", "energies.csv"):
        "4fffd1e98c904cf086c93e967272d4126c1b789976f301e952cb724b65c7c8e2",
    ("2x3", "evolve", "density.json"):
        "afb8fb67bd421b9414135148a8c36d3827062397e997ae2c7a0b70af8645cd94",
    ("2x3", "correlate", "correlations.csv"):
        "ebaa89f9929ddeacb0792916f9db4834de6955bc50ce39891f3e54046d698bb8",
    ("2x2-all", "thermal", "thermal.json"):
        "ff2ab57c4bde51d0670ca7b617be1e6951f63b6f1485d1392eb57e264903f259",
    ("2x2-all", "thermal", "thermal_weights.csv"):
        "107ff5da3297f552b6980e0fde1d98b055f2bd7ab921626760be448e8aa1b89b",
    ("2x2-pair", "thermal", "thermal.json"):
        "3fdab045d9132bba2af3de7559613f0941091c94ac99a95a43e974446e1eaa3b",
    ("2x2-pair", "thermal", "thermal_weights.csv"):
        "ddde63bda682dcf28b686d81b18cf6a0aef60e701a2a80592861b97b98bcbc8d",
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


# (scene, command, file) -> sha256 of the file as written when every
# ``density`` payload listed the whole basis and all dim x dim entries
DENSE_LAYOUT_DIGESTS = {
    ("4x4", "evolve", "density.json"):
        "e12c44293230cbcbc3e6be08fbe17355f6af36f3851a0bf901cc760e895498a9",
    ("3x3", "evolve", "density.json"):
        "8957f0934ecdaee13f011e9f084224c5d42036da9110dad60764ea47b7cc88de",
    ("12x4", "evolve", "density.json"):
        "399fe6916f8a8eebb0446493175460b3deb57c8343f035d01bb8c21cd228e9e9",
    ("12x12", "evolve", "density.json"):
        "3e70ef1477702ef070674657e70900dbbae32c4c616e53674f31a800a9cc0985",
    ("2x3", "evolve", "density.json"):
        "b843b33c658c2a0f04659cf5d5c55967600a312f8bd4e51000b1094fc1860cda",
    ("24x24", "evolve", "density.json"):
        "b3dca62d2a2bc2777815375a1ddb831a749a8f60a1b06896a40ee58189761a6d",
    ("2x2-all", "thermal", "thermal.json"):
        "47fb0a9b26dfed382f16d79a61318b488e98ce0e59ca2fc065107e4ab3887002",
    ("2x2-pair", "thermal", "thermal.json"):
        "d72eee179dda1fa147fc03ce09aa862722d5e7f5b9b77501de316a66a48b8956",
}


# mixtures checked against the Hilbert-basis mixture with no pinned dense file
HILBERT_CHECKED = [("2x3-pair", "thermal", "thermal.json"), ("2x3-weight01", "thermal", "thermal.json")]


def parse_label(geom, label):
    """The configuration a ``cfg:<hex>`` or ``exc:p<j>:<hex>`` label names,
    and its excitation (None for ``cfg:``)."""
    kind, *plaquette, bits = label.split(":")
    config = FlipConfig(int(bits, 16), geom.n_plaquettes)
    return config, (excite(config, int(plaquette[0][1:])) if kind == "exc" else None)


def member_ket(geom, names, amps):
    """A thermal member's 2**n ket as ``--emit-density`` built it over the
    Hilbert basis: its amplitudes on the product kets of its labels."""
    config, _ = parse_label(geom, names[0])
    targets = [parse_label(geom, name)[1] for name in names[1:]]
    if not targets:
        return build_product_ket(geom, config)
    return embed_active_state(geom, config, targets, ActiveState((), np.empty(0), amps, 1.0))


@pytest.mark.parametrize("scene,command,name", [*sorted(DENSE_LAYOUT_DIGESTS), *HILBERT_CHECKED])
def test_support_payload_rebuilds_the_dense_layout(scene, command, name, tmp_path, monkeypatch, capsys):
    """The density written over its support holds the dense layout's
    entries there bit for bit, every other dense entry is zero, and the
    dense layout rebuilt from the same state has the file's former digest.

    A thermal mixture is written over its members' keys.  Lifted by V,
    whose columns are the product kets of its basis labels, it is the
    mixture of the members' 2**n kets to 1e-12, and that mixture's dense
    layout, where pinned, has the digest of the file written over the
    Hilbert basis."""
    states, documents, mixtures = [], [], []
    to_payload = DensityMatrix.to_payload

    def keep_mixture(geom, keys, amps, weights, names):
        names = [list(member_names) for member_names in names]
        mixtures.append((geom, names, amps, weights))
        return keyed_density(geom, keys, amps, weights, names)

    def keep_state(rho):
        states.append(rho)
        return to_payload(rho)

    def keep_document(path, config, payload):
        documents.append((config, payload))
        write_json(path, config, payload)

    monkeypatch.setattr(DensityMatrix, "to_payload", keep_state)
    monkeypatch.setattr(cli, "write_json", keep_document)
    monkeypatch.setattr(cli, "keyed_density", keep_mixture)
    monkeypatch.chdir(tmp_path)
    argv, _ = COMMANDS[command]
    outdir = f"out/{command}"
    assert cli.main([*argv, *SCENES[scene], *COMMON, "--outdir", outdir]) == 0
    (rho,), ((config, payload),) = states, documents

    dense = reference.dense_density_payload(rho)
    written = json.loads((tmp_path / outdir / name).read_text())["density"]
    index = {label: k for k, label in enumerate(dense["basis"])}
    at = [index[label] for label in written["basis"]]
    assert written["dim"] == dense["dim"] == len(dense["basis"])
    if command == "evolve":
        # the initial state and at most one connected target
        assert len(at) <= 2
    matrix = dense["entries"].reshape(-1).view(complex).reshape(rho.dim, rho.dim)
    support = np.ix_(at, at)
    block = np.array(written["entries"], dtype=float).reshape(-1).view(complex)
    assert block.tobytes() == matrix[support].tobytes()
    outside = matrix.copy()
    outside[support] = 0.0
    assert not outside.any()

    if command == "thermal":
        ((geom, names, amps, weights),) = mixtures
        kets = np.array([member_ket(geom, n, a) for n, a in zip(names, amps)])
        v = np.array([build_product_ket(geom, *parse_label(geom, label)) for label in written["basis"]]).T
        lifted = v @ block.reshape(len(at), len(at))
        for rows in np.array_split(np.arange(len(v)), max(1, len(v) // 256)):
            want = (kets[:, rows].T * weights) @ kets.conj()
            assert np.max(np.abs(lifted[rows] @ v.conj().T - want)) <= 1e-12
        if (scene, command, name) not in DENSE_LAYOUT_DIGESTS:
            return
        dense = reference.dense_density_payload(DensityMatrix(kets, np.asarray(weights)))

    write_json(tmp_path / "dense.json", config, {**payload, "density": dense})
    digest = hashlib.sha256((tmp_path / "dense.json").read_bytes()).hexdigest()
    assert digest == DENSE_LAYOUT_DIGESTS[(scene, command, name)]
