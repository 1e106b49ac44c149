"""The writers stream their data with the exact bytes of a reference.

For write_json the reference is ``json.dumps(doc, indent=2,
sort_keys=True)`` of the document with every array given as its
``tolist()``: the layout every JSON output of the tool has always had.
For write_csv it is the per-cell writer in ``reference.py``, fed the rows
of the same column blocks.
"""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kitaevsim import output
from kitaevsim.density import ActiveState, density_matrix
from kitaevsim.output import JSON_BLOCK_ROWS, write_csv, write_json
from reference import write_csv_rows

CONFIG = {"nx": 2, "omega": 0.8, "outdir": "out"}

SPECIAL = [
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
    5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
]

ROW_COUNTS = [0, 1, 2, JSON_BLOCK_ROWS - 1, JSON_BLOCK_ROWS, JSON_BLOCK_ROWS + 1,
              2 * JSON_BLOCK_ROWS + 1]

scalars = st.one_of(
    st.text(max_size=4), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.none(),
)
keys = st.text(alphabet="abmz", min_size=1, max_size=3)


# lengths of runs of one repeated row; the long ones straddle a block boundary
RUN_LENGTHS = [1, 2, 3, JSON_BLOCK_ROWS - 1, JSON_BLOCK_ROWS + 1]

NAN = float("nan")
# runs of rows whose bits differ where their values compare equal: -0.0
# against 0.0, and NaN rows
SIGNED_ZERO_RUNS = np.repeat(
    np.array([[0.5, -0.0], [0.5, 0.0], [NAN, -0.0], [NAN, -0.0]]), [10, 4000, 40, 46], axis=0)
# runs of four distinct rows, -0.0 against 0.0 among them, in the order of
# a mostly-zero matrix's rows: over blocks of 16 rows they recur in block
# after block and straddle block boundaries
_rng = np.random.default_rng(3)
STRADDLING_RUNS = np.repeat(
    np.array([[0.0, 0.0], [0.5, -0.0], [0.0, -0.0], [1e-300, NAN]])[_rng.integers(0, 4, 60)],
    _rng.integers(5, 40, 60), axis=0)

floats = st.sampled_from(SPECIAL) | st.floats()


@st.composite
def float_arrays(draw):
    """1-D or (N, 1 to 3) float array: a few drawn values tiled, or a few
    drawn rows repeated in runs of drawn lengths."""
    width = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    if draw(st.booleans()):
        values = draw(st.lists(floats, min_size=1, max_size=8))
        return np.resize(np.array(values), (draw(st.sampled_from(ROW_COUNTS)), *width))
    rows = np.array(draw(st.lists(st.tuples(floats, floats, floats), min_size=1, max_size=3)))
    rows = rows[:, :width[0]] if width else rows[:, 0]
    runs = draw(st.lists(
        st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(RUN_LENGTHS)),
        min_size=1, max_size=4,
    ))
    picks, lengths = zip(*runs)
    return np.repeat(rows[list(picks)], lengths, axis=0)


@st.composite
def nest(draw, arr):
    """``arr`` at depth 1 to 3 below the payload, among scalar siblings."""
    node = arr
    for _ in range(draw(st.integers(0, 2))):
        siblings = draw(st.lists(scalars, max_size=3))
        at = draw(st.integers(0, len(siblings)))
        if draw(st.booleans()):
            node = [*siblings[:at], node, *siblings[at:]]
        else:
            node = {draw(keys) + str(k): v for k, v in enumerate(siblings)} | {"arr": node}
    return node


@st.composite
def payloads(draw):
    payload = draw(st.dictionaries(keys, scalars, max_size=3))
    for k, arr in enumerate(draw(st.lists(float_arrays(), min_size=1, max_size=3))):
        payload[draw(keys) + f"_{k}"] = draw(nest(arr))
    return payload


def as_lists(node):
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {k: as_lists(v) for k, v in node.items()}
    if isinstance(node, list):
        return [as_lists(v) for v in node]
    return node


def as_blocks(node):
    """``node`` with each array given as an iterator of three row blocks,
    some empty when it has fewer than three rows."""
    if isinstance(node, np.ndarray):
        return iter(np.array_split(node, 3))
    if isinstance(node, dict):
        return {k: as_blocks(v) for k, v in node.items()}
    if isinstance(node, list):
        return [as_blocks(v) for v in node]
    return node


def reference_bytes(tmp_path: Path, payload: dict) -> bytes:
    """The stdlib encoding of the header plus the list form of ``payload``."""
    write_json(tmp_path / "meta.json", CONFIG, {})
    meta = json.loads((tmp_path / "meta.json").read_text())["meta"]
    doc = {"meta": meta, **as_lists(payload)}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("form", ["lists", "arrays", "blocks"])
@settings(database=None, max_examples=40, deadline=None)
@given(payload=payloads(), block=st.sampled_from([JSON_BLOCK_ROWS, 16]))
@example(payload={"arr": SIGNED_ZERO_RUNS}, block=JSON_BLOCK_ROWS)
@example(payload={"a": STRADDLING_RUNS, "b": {"c": STRADDLING_RUNS[::-1].copy()}}, block=16)
@example(payload={"i": np.arange(-9, 9).reshape(6, 3), "u": np.arange(5, dtype=np.uint8),
                  "b": np.array([[True, False], [False, False]])}, block=16)
def test_write_json_matches_the_stdlib_encoding(form, payload, block, tmp_path_factory):
    # arrays are encoded in blocks of ``block`` rows
    tmp_path = tmp_path_factory.mktemp("json")
    written = {"lists": as_lists, "arrays": lambda p: p, "blocks": as_blocks}[form](payload)
    with mock.patch.object(output, "JSON_BLOCK_ROWS", block):
        write_json(tmp_path / "doc.json", CONFIG, written)
    assert (tmp_path / "doc.json").read_bytes() == reference_bytes(tmp_path, payload)


@pytest.mark.parametrize("arr", [np.zeros((2, 2, 2)), np.array([1 + 1j])])
def test_write_json_rejects_arrays_it_cannot_stream(arr, tmp_path):
    with pytest.raises(TypeError, match="1-D or 2-D real"):
        write_json(tmp_path / "bad.json", CONFIG, {"arr": arr})
    assert not (tmp_path / "bad.json").exists()


def test_density_payload_streams_in_bounded_memory(tmp_path):
    # evolve's shape: a pure state with few nonzero amplitudes, whose
    # payload is the 3 x 3 block over them
    dim = 1024
    amps = np.zeros(dim, dtype=complex)
    amps[[0, 7, 300]] = [0.6, 0.64j, -0.48]
    state = ActiveState(tuple(f"s{k}" for k in range(dim)), np.zeros(dim), amps, 1.0)
    tracemalloc.start()
    try:
        payload = {"density": density_matrix(state).to_payload()}
        write_json(tmp_path / "density.json", CONFIG, payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * dim * dim // 8, f"peak {peak} bytes for a {16 * dim * dim}-byte matrix"
    written = json.loads((tmp_path / "density.json").read_text())["density"]
    assert (written["basis"], written["dim"]) == (["s0", "s7", "s300"], dim)
    assert len(written["entries"]) == 9


# ---------------------------------------------------------------- write_csv

CELLS = {
    "float": floats,
    "int": st.integers(-(2**63), 2**63 - 1),
    "bool": st.booleans(),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
}
# how a column of each kind may be given: an array, a list, a list of numpy
# scalars, or one scalar that fills the block
FORMS = {
    "float": ["array", "list", "numpy scalars", "scalar", "numpy scalar"],
    "int": ["array", "list", "numpy scalars", "scalar"],
    "bool": ["array", "list", "scalar"],
    "str": ["list", "scalar"],
}
DTYPES = {"float": np.float64, "int": np.int64, "bool": np.bool_}


@st.composite
def column_blocks(draw):
    """Column kinds and blocks of 0, 1 or many rows, some repeating the
    previous block; the first column is never a scalar."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        if blocks and draw(st.booleans()):
            blocks.append(blocks[-1])
            continue
        n = draw(st.sampled_from([0, 1, 2, 37]))
        block = []
        for k, kind in enumerate(kinds):
            forms = [f for f in FORMS[kind] if k or not f.endswith("scalar")]
            form = draw(st.sampled_from(forms))
            if form in ("scalar", "numpy scalar"):
                cell = draw(CELLS[kind])
                block.append(np.float64(cell) if form == "numpy scalar" else cell)
                continue
            cells = draw(st.lists(CELLS[kind], min_size=n, max_size=n))
            if form == "array":
                block.append(np.array(cells, dtype=DTYPES[kind]))
            elif form == "numpy scalars":
                block.append([DTYPES[kind](cell) for cell in cells])
            else:
                block.append(cells)
        blocks.append(tuple(block))
    return kinds, blocks


def block_rows(block):
    """The row tuples of a column block, arrays given as their tolist()."""
    (n,) = {len(c) for c in block if isinstance(c, (list, np.ndarray))}
    cells = [
        c.tolist() if isinstance(c, np.ndarray) else c if isinstance(c, list) else [c] * n
        for c in block
    ]
    return list(zip(*cells))


@settings(database=None, max_examples=200, deadline=None)
@given(data=column_blocks(), chunk=st.sampled_from([1, 2, 36, output.CSV_CHUNK_ROWS]))
def test_write_csv_matches_the_per_cell_writer(data, chunk, tmp_path_factory):
    # chunks of 1, 2 and 36 rows split the 37-row blocks
    kinds, blocks = data
    tmp_path = tmp_path_factory.mktemp("csv")
    columns = [f"{kind}{k}" for k, kind in enumerate(kinds)]
    with mock.patch.object(output, "CSV_CHUNK_ROWS", chunk):
        write_csv(tmp_path / "cols.csv", CONFIG, columns, iter(blocks))
    write_csv_rows(tmp_path / "rows.csv", CONFIG, columns,
                   [row for block in blocks for row in block_rows(block)])
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_formats_a_refilled_buffer_again(tmp_path):
    """Text is reused for a column equal to the previous block's, not for
    the same array object written to in place."""
    buffer = np.zeros(3)

    def blocks():
        for value in (1.5, 1.5, -0.0, 2.5):
            buffer[:] = value
            yield ("x", buffer)

    write_csv(tmp_path / "cols.csv", CONFIG, ["k", "v"], blocks())
    write_csv_rows(tmp_path / "rows.csv", CONFIG, ["k", "v"],
                   [("x", v) for v in (1.5, 1.5, -0.0, 2.5) for _ in range(3)])
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("block,match", [
    (([1.0, 2.0],), "1 columns, the header 2"),
    (([1.0, 2.0], [1.0]), r"one length, got \[1, 2\]"),
    (("a", 1.0), r"one length, got \[\]"),
])
def test_write_csv_rejects_malformed_blocks(block, match, tmp_path):
    with pytest.raises(ValueError, match=match):
        write_csv(tmp_path / "bad.csv", CONFIG, ["a", "b"], [block])


def test_write_csv_streams_in_bounded_memory(tmp_path):
    n_rows, rows_per_block = 200_000, 4096

    def blocks():
        rng = np.random.default_rng(4)
        for start in range(0, n_rows, rows_per_block):
            n = min(rows_per_block, n_rows - start)
            yield np.arange(start, start + n), rng.standard_normal(n), rng.random(n) < 0.5

    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(path, CONFIG, ["k", "x", "flag"], blocks())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert len(path.read_text().splitlines()) == n_rows + len(output.header_block(CONFIG)) + 1
    assert peak < size // 2, f"peak {peak} bytes for a {size}-byte file"


def test_write_csv_formats_a_long_block_in_chunks(tmp_path):
    # phase.csv's layout: one block of 200 001 rows, four float columns and
    # a bool column; the arrays exist before tracing starts
    n_rows = 200_001
    rng = np.random.default_rng(5)
    block = (np.linspace(0.0, 6.0, n_rows), rng.random(n_rows), rng.standard_normal(n_rows),
             rng.standard_normal(n_rows), rng.random(n_rows) < 0.01)
    path = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        write_csv(path, CONFIG, ["t", "A", "a", "phi", "singular"], [block])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the columns' bits, kept to spot a repeat in the next block, are 33 B a
    # row; formatting the block whole held about 560 B a row
    assert peak < 64 * n_rows, f"peak {peak} bytes, {peak / n_rows:.0f} B a row"
    write_csv_rows(tmp_path / "rows.csv", CONFIG, ["t", "A", "a", "phi", "singular"],
                   block_rows(block))
    assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_holds_no_copy_of_a_long_blocks_bits(tmp_path):
    # the same block as above: a long block is compared with the next one
    # by its arrays, so nothing of its size is held besides one chunk's text
    # (about 13 B a row here; a tobytes key of every column took 33 B more)
    n_rows = 200_001
    rng = np.random.default_rng(5)
    block = (np.linspace(0.0, 6.0, n_rows), rng.random(n_rows), rng.standard_normal(n_rows),
             rng.standard_normal(n_rows), rng.random(n_rows) < 0.01)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "long.csv", CONFIG, ["t", "A", "a", "phi", "singular"], [block])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * n_rows, f"peak {peak} bytes, {peak / n_rows:.0f} B a row"


@pytest.fixture
def formatted(monkeypatch):
    """The lengths of the columns write_csv formats, in call order."""
    calls = []
    format_column = output._format_column

    def spy(column):
        calls.append(len(column))
        return format_column(column)

    monkeypatch.setattr(output, "_format_column", spy)
    return calls


def test_write_csv_reuses_a_block_around_scalars_in_any_column(formatted, tmp_path):
    # a scalar between array columns and one after them, a NUL in a label:
    # the arrays repeat, so only the first block formats them
    times, zeros = np.linspace(0.0, 1.0, 5), np.zeros(5)
    blocks = [(times, f"s\0{k}", zeros, k % 2 == 0) for k in range(6)]
    write_csv(tmp_path / "cols.csv", CONFIG, ["t", "label", "x", "even"], blocks)
    assert formatted == [5, 5]
    write_csv_rows(tmp_path / "rows.csv", CONFIG, ["t", "label", "x", "even"],
                   [row for block in blocks for row in block_rows(block)])
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def series_blocks(n_samples, n_series):
    """coefficients.csv's layout: a target label, the time grid, and the
    real and imaginary parts of one nonzero series, then of zero series."""
    times = np.linspace(0.0, 6.0, n_samples)
    values = [np.exp(1j * times) - 1.0] + [np.zeros(n_samples, complex) for _ in range(n_series - 1)]
    return [(f"x{k}", times, v.real, v.imag) for k, v in enumerate(values)]


def test_write_csv_formats_a_short_zero_series_once(formatted, tmp_path):
    # 65 samples, as every evolve writes by default: the nonzero block and
    # the first zero block are formatted, the other zero blocks reuse it
    blocks = series_blocks(65, 576)
    write_csv(tmp_path / "cols.csv", CONFIG, ["target", "t", "re_c", "im_c"], iter(blocks))
    assert formatted == [65] * 6
    write_csv_rows(tmp_path / "rows.csv", CONFIG, ["target", "t", "re_c", "im_c"],
                   [row for block in blocks for row in block_rows(block)])
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_formats_a_long_zero_series_at_most_twice(formatted, tmp_path):
    # past one chunk a block's text is kept only once its arrays repeat the
    # previous block's: the first zero block goes out chunk by chunk, the
    # second is formatted and kept, and the rest are written from its text
    n_samples = 2 * output.CSV_CHUNK_ROWS + 1
    blocks = series_blocks(n_samples, 6)
    write_csv(tmp_path / "cols.csv", CONFIG, ["target", "t", "re_c", "im_c"], iter(blocks))
    chunks = [output.CSV_CHUNK_ROWS] * 6 + [1] * 3
    assert formatted == chunks * 3
    write_csv_rows(tmp_path / "rows.csv", CONFIG, ["target", "t", "re_c", "im_c"],
                   [row for block in blocks for row in block_rows(block)])
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
