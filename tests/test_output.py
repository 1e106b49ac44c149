"""write_json streams numpy arrays with the stdlib encoder's exact bytes.

The reference is ``json.dumps(doc, indent=2, sort_keys=True)`` of the
document with every array given as its ``tolist()``: the layout every
JSON output of the tool has always had.
"""

import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaevsim.density import DensityMatrix
from kitaevsim.output import JSON_BLOCK_ROWS, write_json

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


@st.composite
def float_arrays(draw):
    """1-D or (N, 2) float array tiled from a few drawn values."""
    values = draw(st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=1, max_size=8))
    n = draw(st.sampled_from(ROW_COUNTS))
    shape = draw(st.sampled_from([(n,), (n, 2)]))
    return np.resize(np.array(values), shape)


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


def reference_bytes(tmp_path: Path, payload: dict) -> bytes:
    """The stdlib encoding of the header plus the list form of ``payload``."""
    write_json(tmp_path / "meta.json", CONFIG, "label", {})
    meta = json.loads((tmp_path / "meta.json").read_text())["meta"]
    doc = {"meta": meta, **as_lists(payload)}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("form", ["lists", "arrays"])
@settings(database=None, max_examples=40, deadline=None)
@given(payload=payloads())
def test_write_json_matches_the_stdlib_encoding(form, payload, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("json")
    written = payload if form == "arrays" else as_lists(payload)
    write_json(tmp_path / "doc.json", CONFIG, "label", written)
    assert (tmp_path / "doc.json").read_bytes() == reference_bytes(tmp_path, payload)


@pytest.mark.parametrize("arr", [np.zeros((2, 2, 2)), np.array([1 + 1j])])
def test_write_json_rejects_arrays_it_cannot_stream(arr, tmp_path):
    with pytest.raises(TypeError, match="1-D or 2-D real"):
        write_json(tmp_path / "bad.json", CONFIG, "label", {"arr": arr})
    assert not (tmp_path / "bad.json").exists()


def test_density_payload_streams_in_bounded_memory():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    tracemalloc.start()
    try:
        payload = {"density": DensityMatrix(matrix=m).to_payload()}
        write_json(Path(os.devnull), CONFIG, "label", payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes // 2, f"peak {peak} bytes for a {m.nbytes}-byte matrix"
