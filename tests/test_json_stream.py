"""write_json streams its document: the text of its strings goes to the
file chunk by chunk and is never held whole, as a thermal mixture's
long member labels need on a large torus."""

import json
import tracemalloc

import numpy as np

from kitaevsim.output import write_json

CONFIG = {"nx": 256, "ny": 256, "outdir": "out"}


def test_write_json_holds_a_small_share_of_its_document(tmp_path):
    # 20 000 strings of 2 000 hex digits, a 40 MB document, and an array
    label = "0x" + "9f" * 999
    rows = np.arange(12.0).reshape(6, 2)
    payload = {"labels": [label] * 20_000, "rows": rows, "weights": {"k": [0.5, 0.25]}}
    path = tmp_path / "labels.json"
    tracemalloc.start()
    try:
        write_json(path, CONFIG, payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 40_000_000
    assert peak < size // 10, f"peak {peak} bytes for a {size}-byte file"
    doc = json.loads(path.read_text())
    assert doc["labels"] == payload["labels"]
    assert doc["rows"] == rows.tolist()
    assert doc["weights"] == payload["weights"]
