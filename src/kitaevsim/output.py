"""Deterministic CSV/JSON emission with reproducibility headers.

Every output file starts with a header block recording the tool version,
the hbar = 1 convention, the engine, a hash of the fully-serialized run
configuration, and the configuration itself.  CSV floats are written with
17 significant digits and JSON floats in ``repr`` form, the shortest that
round-trips, so both files round-trip bit-exactly and diff cleanly.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import TextIO

import numpy as np

from . import __version__

# first-axis rows of an array that write_json encodes per C-encoder call;
# an (N, 2) block of floats is about 400 KB of text
JSON_BLOCK_ROWS = 4096

# JSON text of the string write_json puts in place of the k-th array
_ARRAY_PLACEHOLDER = re.compile(r'"\\u0000ndarray:(\d+)"')


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def canonical_config(config: dict) -> str:
    return "\n".join(f"{k}={config[k]}" for k in sorted(config))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_config(config).encode()).hexdigest()[:16]


def header_block(config: dict, engine: str) -> list[str]:
    lines = [
        f"# kitaevsim v{__version__}",
        "# convention: hbar=1",
        f"# engine: {engine}",
        f"# config_hash: {config_hash(config)}",
    ]
    for k in sorted(config):
        lines.append(f"# config: {k}={config[k]}")
    return lines


def write_csv(
    path: Path, config: dict, engine: str, columns: list[str], rows
) -> None:
    """CSV with a '#' header block; floats at full round-trip precision."""
    out = header_block(config, engine)
    out.append(",".join(columns))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("1" if cell else "0")
            elif isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")


def _lift_arrays(node, arrays: list[np.ndarray]):
    """Copy of ``node`` with each nonempty array replaced by a placeholder.

    The arrays are appended to ``arrays``; the k-th one's placeholder is
    the string NUL + "ndarray:k".  An empty array becomes its (short) list.
    """
    if isinstance(node, np.ndarray):
        if node.size == 0:
            return node.tolist()
        if node.ndim not in (1, 2) or node.dtype.kind not in "biuf":
            raise TypeError(
                f"write_json takes 1-D or 2-D real arrays, got {node.ndim}-D {node.dtype}"
            )
        arrays.append(node)
        return f"\0ndarray:{len(arrays) - 1}"
    if isinstance(node, dict):
        return {k: _lift_arrays(v, arrays) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_lift_arrays(v, arrays) for v in node]
    return node


def _write_array(fh: TextIO, arr: np.ndarray, indent: str) -> None:
    """Write ``arr`` as ``json.dumps(arr.tolist(), indent=2)`` lays it out.

    ``indent`` is the indentation of the line the array starts on.  Each
    block of JSON_BLOCK_ROWS rows goes through the C encoder in compact
    form, whose ", " and "], [" separators are then rewritten into the
    indented layout; a float's JSON text holds no bracket, comma or space.
    """
    inner = indent + "  "
    fh.write("[\n" + inner)
    for start in range(0, len(arr), JSON_BLOCK_ROWS):
        if start:
            fh.write(",\n" + inner)
        text = json.dumps(arr[start:start + JSON_BLOCK_ROWS].tolist())[1:-1]
        if arr.ndim == 1:
            text = text.replace(", ", ",\n" + inner)
        else:
            leaf = inner + "  "
            text = (
                text.replace("], [", "],\n" + inner + "[")
                .replace(", ", ",\n" + leaf)
                .replace("[", "[\n" + leaf)
                .replace("]", "\n" + inner + "]")
            )
        fh.write(text)
    fh.write("\n" + indent + "]")


def write_json(path: Path, config: dict, engine: str, payload: dict) -> None:
    """JSON document whose first key is the reproducibility header.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``
    with every numpy array in ``payload`` given as its ``tolist()``.  The
    arrays are streamed to the file in row blocks, so no list of their
    entries is ever built.
    """
    doc = {
        "meta": {
            "tool": f"kitaevsim v{__version__}",
            "convention": "hbar=1",
            "engine": engine,
            "config_hash": config_hash(config),
            "config": {k: config[k] for k in sorted(config)},
        }
    }
    doc.update(payload)
    arrays: list[np.ndarray] = []
    pieces = _ARRAY_PLACEHOLDER.split(
        json.dumps(_lift_arrays(doc, arrays), indent=2, sort_keys=True)
    )
    with path.open("w") as fh:
        fh.write(pieces[0])
        for before, k, text in zip(pieces[0::2], pieces[1::2], pieces[2::2]):
            line = before[before.rfind("\n") + 1:]
            _write_array(fh, arrays[int(k)], " " * (len(line) - len(line.lstrip(" "))))
            fh.write(text)
        fh.write("\n")


PLOT_SCRIPT = '''\
#!/usr/bin/env python3
"""Self-contained plot of {csv_name}; the data file is the source of truth."""
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

data = np.genfromtxt("{csv_name}", delimiter=",", names=True, comments="#")
x = data[data.dtype.names[0]]
fig, ax = plt.subplots()
for name in data.dtype.names[1:]:
    try:
        ax.plot(x, data[name], label=name)
    except TypeError:
        pass
ax.set_xlabel(data.dtype.names[0])
ax.legend()
fig.savefig("{png_name}", dpi=150, bbox_inches="tight")
print("wrote {png_name}")
'''


def write_plot_script(csv_path: Path) -> Path:
    """Optional companion matplotlib script next to a CSV output."""
    script = csv_path.with_name(f"plot_{csv_path.stem}.py")
    script.write_text(
        PLOT_SCRIPT.format(csv_name=csv_path.name, png_name=csv_path.stem + ".png")
    )
    return script
