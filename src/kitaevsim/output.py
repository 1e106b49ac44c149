"""Deterministic CSV/JSON emission with reproducibility headers.

Every output file starts with a header block recording the tool version,
the hbar = 1 convention, a hash of the fully-serialized run
configuration, and the configuration itself.  CSV floats are written with
17 significant digits and JSON floats in ``repr`` form, the shortest that
round-trips, so both files round-trip bit-exactly and diff cleanly.

Both writers stream.  ``write_csv`` takes column blocks and writes each
block in chunks of CSV_CHUNK_ROWS rows, formatting each column of a
chunk in one pass.  A column whose bits equal the previous block's is
written from the text kept for it, so a time grid shared by many series
is formatted once; otherwise a long block's text is held one chunk at a
time.  ``write_json`` writes each numpy array, or each
:class:`LazyRows` whose rows are formed only when asked, in blocks of
JSON_BLOCK_ROWS rows; a block made of few runs of bit-identical rows,
such as the mostly-zero rows of a density matrix, has each run's row
encoded once.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from . import __version__

# first-axis rows of an array that write_json encodes per C-encoder call;
# an (N, 2) block of floats is about 400 KB of text
JSON_BLOCK_ROWS = 4096

# rows that write_csv writes at once; a longer block goes out in chunks of
# this many rows, and its columns are formatted chunk by chunk unless they
# repeat the previous block's
CSV_CHUNK_ROWS = 4096

# a block with at most one run of bit-identical consecutive rows per RUN_ROWS
# rows is written run by run; on (N, 2) floats the two ways to write a block
# cost the same at about 3.5 rows per run
RUN_ROWS = 4

# JSON text of the string write_json puts in place of the k-th array
_ARRAY_PLACEHOLDER = re.compile(r'"\\u0000ndarray:(\d+)"')


def canonical_config(config: dict) -> str:
    return "\n".join(f"{k}={config[k]}" for k in sorted(config))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_config(config).encode()).hexdigest()[:16]


def header_block(config: dict) -> list[str]:
    lines = [
        f"# kitaevsim v{__version__}",
        "# convention: hbar=1",
        f"# config_hash: {config_hash(config)}",
    ]
    for k in sorted(config):
        lines.append(f"# config: {k}={config[k]}")
    return lines


def _format_cell(cell) -> str:
    if isinstance(cell, bool):
        return "1" if cell else "0"
    if isinstance(cell, float):
        return f"{float(cell):.17g}"
    return str(cell)


def _format_column(column) -> list[str]:
    """Cell texts of one column; an array is written as its ``tolist()``.

    ``tolist()`` gives Python floats, bools and ints, which float64, bool
    and integer arrays format in one pass each.
    """
    if isinstance(column, np.ndarray):
        cells = column.tolist()
        if column.dtype == np.float64:
            return list(map(format, cells, repeat(".17g")))
        if column.dtype == np.bool_:
            return ["1" if cell else "0" for cell in cells]
        if column.dtype.kind in "iu":
            return list(map(str, cells))
        column = cells
    return [_format_cell(cell) for cell in column]


def _is_scalar(column) -> bool:
    return isinstance(column, (str, int, float, np.generic))


def write_csv(path: Path, config: dict, columns: list[str], blocks) -> None:
    """CSV with a '#' header block, streamed one block of rows at a time.

    ``blocks`` yields column blocks: one column per name in ``columns``,
    all of one length.  A column is a 1-D array, a sequence, or a scalar
    that fills every row of its block.  A cell is written as 1/0 for a
    bool, with 17 significant digits for a float (numpy float64
    included), and as ``str()`` otherwise; an array as its ``tolist()``.
    Each block's rows are written before the next block is drawn, in
    chunks of CSV_CHUNK_ROWS rows.  An array column's text is formatted
    whole and kept when its block fits one chunk or its bits equal the
    previous block's, and reused while they stay equal; any other column
    is formatted one chunk at a time.
    """
    with path.open("w") as fh:
        fh.write("\n".join([*header_block(config), ",".join(columns)]) + "\n")
        # per column: the previous block's array bits and its text, if kept
        previous: list[tuple[tuple, list[str] | None] | None] = [None] * len(columns)
        for block in blocks:
            if len(block) != len(columns):
                raise ValueError(f"a block has {len(block)} columns, the header {len(columns)}")
            lengths = {len(column) for column in block if not _is_scalar(column)}
            if len(lengths) != 1:
                raise ValueError(f"a block's columns must share one length, got {sorted(lengths)}")
            (n_rows,) = lengths
            texts: list[list[str] | None] = []
            for k, column in enumerate(block):
                if not isinstance(column, np.ndarray):
                    texts.append(None)
                    continue
                key = (column.tobytes(), column.dtype, column.shape)
                seen = previous[k] is not None and previous[k][0] == key
                text = previous[k][1] if seen else None
                if text is None and (seen or n_rows <= CSV_CHUNK_ROWS):
                    previous[k] = None  # free the old text before formatting
                    text = _format_column(column)
                previous[k] = (key, text)
                texts.append(text)
            for start in range(0, n_rows, CSV_CHUNK_ROWS):
                stop = min(start + CSV_CHUNK_ROWS, n_rows)
                cells = [
                    repeat(_format_cell(column), stop - start) if _is_scalar(column)
                    else _format_column(column[start:stop]) if text is None
                    else text[start:stop]
                    for column, text in zip(block, texts)
                ]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


class LazyRows:
    """A read-only 2-D float array whose rows are formed only when sliced.

    ``write_json`` takes one wherever it takes a numpy array, and asks it
    only for ``len()`` and row slices, each returned as an ndarray.  A
    subclass sets ``shape`` and forms rows [start, stop) in ``_rows``.
    """

    dtype = np.dtype(float)
    ndim = 2
    shape: tuple[int, int]

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError("LazyRows takes row slices of step 1")
        start, stop, _ = rows.indices(len(self))
        return self._rows(start, max(start, stop))

    def _rows(self, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError


def _lift_arrays(node, arrays: list):
    """Copy of ``node`` with each nonempty array replaced by a placeholder.

    The arrays (numpy arrays and LazyRows) are appended to ``arrays``; the
    k-th one's placeholder is the string NUL + "ndarray:k".  An empty
    array becomes its (short) list.
    """
    if isinstance(node, (np.ndarray, LazyRows)):
        if node.size == 0:
            return node[:].tolist()
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


def _encode(rows: np.ndarray, inner: str) -> str:
    """JSON text of ``rows`` in the indented layout, brackets dropped.

    ``rows`` goes through the C encoder in compact form, whose ", " and
    "], [" separators are then rewritten into the layout of
    ``json.dumps(..., indent=2)``; a float's JSON text holds no bracket,
    comma or space.
    """
    text = json.dumps(rows.tolist())[1:-1]
    if rows.ndim == 1:
        return text.replace(", ", ",\n" + inner)
    leaf = inner + "  "
    return (
        text.replace("], [", "],\n" + inner + "[")
        .replace(", ", ",\n" + leaf)
        .replace("[", "[\n" + leaf)
        .replace("]", "\n" + inner + "]")
    )


def _run_starts(block: np.ndarray) -> np.ndarray:
    """Indices where a run of bit-identical consecutive rows starts."""
    raw = np.ascontiguousarray(block).view(np.uint8).reshape(len(block), -1)
    changed = np.any(raw[1:] != raw[:-1], axis=1)
    return np.concatenate(([0], np.flatnonzero(changed) + 1))


def _write_array(fh: TextIO, arr, indent: str) -> None:
    """Write ``arr``, a numpy array or LazyRows, as
    ``json.dumps(arr.tolist(), indent=2)`` lays it out.

    ``indent`` is the indentation of the line the array starts on.  The
    array goes out in blocks of JSON_BLOCK_ROWS rows.  A block with at
    most one run of bit-identical rows per RUN_ROWS rows is written run
    by run, each run's row encoded once and its text repeated; any other
    block is encoded whole.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    fh.write("[\n" + inner)
    for start in range(0, len(arr), JSON_BLOCK_ROWS):
        block = arr[start:start + JSON_BLOCK_ROWS]
        if start:
            fh.write(sep)
        starts = _run_starts(block)
        if len(starts) * RUN_ROWS > len(block):
            fh.write(_encode(block, inner))
            continue
        for first, end in zip(starts, [*starts[1:], len(block)]):
            if first:
                fh.write(sep)
            fh.write(sep.join([_encode(block[first:first + 1], inner)] * int(end - first)))
    fh.write("\n" + indent + "]")


def write_json(path: Path, config: dict, payload: dict) -> None:
    """JSON document whose first key is the reproducibility header.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``
    with every numpy array and LazyRows in ``payload`` given as its
    ``tolist()``.  The arrays are streamed to the file in row blocks, so no
    list of their entries is ever built.
    """
    doc = {
        "meta": {
            "tool": f"kitaevsim v{__version__}",
            "convention": "hbar=1",
            "config_hash": config_hash(config),
            "config": {k: config[k] for k in sorted(config)},
        }
    }
    doc.update(payload)
    arrays: list = []
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
