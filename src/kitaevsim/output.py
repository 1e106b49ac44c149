"""Deterministic CSV/JSON emission with reproducibility headers.

Every output file starts with a header block recording the tool version,
the hbar = 1 convention, a hash of the fully-serialized run
configuration, and the configuration itself.  CSV floats are written with
17 significant digits and JSON floats in ``repr`` form, the shortest that
round-trips, so both files round-trip bit-exactly and diff cleanly.

Both writers stream, and neither holds a whole file's text.
``write_csv`` takes column blocks and writes each block in chunks of
CSV_CHUNK_ROWS rows, formatting each column of a chunk in one pass.  A
block of number arrays and scalars keeps its rows' text, split at the
scalar cells, when it fits one chunk or when its arrays repeat the
previous block's bits; a block that repeats the kept one, such as each
zero series after another, is written from that text in one join around
its own scalar cells.  Any other block's text is held one chunk at a
time.  ``write_json`` writes its document chunk by chunk as the
indented encoder gives it, and each numpy array where its placeholder
chunk comes, in blocks of JSON_BLOCK_ROWS rows.  A block's distinct
values in each column are formatted once each, so a mostly-zero block
costs little more than a sort and a join.
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

# first-axis rows of an array that write_json encodes at once; encoding
# an (N, 2) block of distinct floats peaks at about 320 KB (1.3 MB at 4096
# rows).  The longest arrays written are a density payload's (nnz, 2)
# amplitudes, at most two rows a thermal member
JSON_BLOCK_ROWS = 1024

# rows that write_csv writes at once; a longer block goes out in chunks of
# this many rows, its text kept only when it repeats the previous block
CSV_CHUNK_ROWS = 4096

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


# a column of one of these types is a scalar that fills its block
_SCALARS = (str, int, float, np.generic)


def _bits(column: np.ndarray) -> tuple:
    """A key two arrays share only when their cells are equal bit for bit."""
    return column.tobytes(), column.dtype, column.shape


def _same_bits(kept, key) -> bool:
    """Whether two arrays hold the same bits, compared a chunk at a time so
    that no copy of their bits is held; a scalar column's key is None."""
    if kept is None or key is None or kept is key:
        return kept is key
    return kept.dtype == key.dtype and kept.shape == key.shape and all(
        kept[k:k + CSV_CHUNK_ROWS].tobytes() == key[k:k + CSV_CHUNK_ROWS].tobytes()
        for k in range(0, len(key), CSV_CHUNK_ROWS))


def write_csv(path: Path, config: dict, columns: list[str], blocks) -> None:
    """CSV with a '#' header block, streamed one block of rows at a time.

    ``blocks`` yields column blocks: one column per name in ``columns``,
    all of one length.  A column is a 1-D array, a sequence, or a scalar
    that fills every row of its block.  A cell is written as 1/0 for a
    bool, with 17 significant digits for a float (numpy float64
    included), and as ``str()`` otherwise; an array as its ``tolist()``.
    Each block's rows are written before the next block is drawn, in
    chunks of CSV_CHUNK_ROWS rows, each column of a chunk formatted in
    one pass.  A block of number arrays and scalars keeps its rows' text,
    chunk by chunk and split at the scalar cells, when it fits one chunk
    or when its arrays repeat the bits of the previous such block; a later
    block whose arrays repeat the kept block's is written from that text,
    joined around its own scalar cells.  An array of a block longer than
    a chunk must not change while the blocks after it are written.
    """
    with path.open("w") as fh:
        fh.write("\n".join([*header_block(config), ",".join(columns)]) + "\n")
        # the last block of number arrays and scalars: its rows, its column
        # keys (None for a scalar; an array's _bits if the block fits one
        # chunk, else the array) and, once kept, its rows' text per chunk,
        # split at the scalar cells
        kept_rows, kept_keys, kept_text = -1, None, None
        for block in blocks:
            if len(block) != len(columns):
                raise ValueError(f"a block has {len(block)} columns, the header {len(columns)}")
            scalar = [isinstance(column, _SCALARS) for column in block]
            lengths = {len(column) for column, s in zip(block, scalar) if not s}
            if len(lengths) != 1:
                raise ValueError(f"a block's columns must share one length, got {sorted(lengths)}")
            (n_rows,) = lengths
            keep = reuse = False
            # number arrays, whose text holds no NUL, and scalars
            if all(s or (isinstance(column, np.ndarray) and column.dtype.kind in "biuf")
                   for column, s in zip(block, scalar)):
                short = n_rows <= CSV_CHUNK_ROWS
                keys = [None if s else _bits(column) if short else column
                        for column, s in zip(block, scalar)]
                seen = kept_rows == n_rows and (
                    keys == kept_keys if short else all(map(_same_bits, kept_keys, keys)))
                if not seen:
                    # free the old text before formatting
                    kept_rows, kept_keys, kept_text = n_rows, keys, None
                reuse = kept_text is not None
                keep = not reuse and (seen or short)
                if keep:
                    kept_text = []
            fills = [_format_cell(column) for column, s in zip(block, scalar) if s]
            for k, start in enumerate(range(0, n_rows, CSV_CHUNK_ROWS)):
                stop = min(start + CSV_CHUNK_ROWS, n_rows)
                if not reuse:
                    # NUL marks the scalar cells of text that is kept
                    cells = [
                        repeat("\0" if keep else _format_cell(column), stop - start) if s
                        else _format_column(column[start:stop])
                        for column, s in zip(block, scalar)
                    ]
                    text = "\n".join(map(",".join, zip(*cells))) + "\n"
                    if not keep:
                        fh.write(text)
                        continue
                    kept_text.append(text.split("\0"))
                parts = kept_text[k]
                pieces = [None] * (2 * len(parts) - 1)
                pieces[::2] = parts
                pieces[1::2] = fills * (stop - start)
                fh.write("".join(pieces))


def _lift_arrays(node, arrays: list):
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


def _texts(values: np.ndarray, pre: str, post: str) -> np.ndarray:
    """Object array of ``pre`` + the JSON text of each of the 1-D
    ``values`` + ``post``; each distinct value, by its bits, goes through
    the C encoder once."""
    _, first, at = np.unique(values.view(f"u{values.itemsize}"), return_index=True, return_inverse=True)
    texts = json.dumps(values[first].tolist())[1:-1].split(", ")
    return np.array([pre + text + post for text in texts], dtype=object)[at]


def _encode(rows: np.ndarray, inner: str) -> str:
    """JSON text of ``rows`` in the indented layout, brackets dropped.

    Each value's text carries the separator ``json.dumps(..., indent=2)``
    puts before it, and a row's last the row's close, so the block's text
    is one join; a value's JSON text holds no comma or space.
    """
    if rows.ndim == 1:
        return "".join(_texts(rows, ",\n" + inner, "").tolist())[len(inner) + 2:]
    leaf = inner + "  "
    last = rows.shape[1] - 1
    cells = np.empty(rows.shape, dtype=object)
    for j in range(last + 1):
        # the first column's separator ends the previous row and opens its own
        pre = ",\n" + inner + "[\n" + leaf if j == 0 else ",\n" + leaf
        cells[:, j] = _texts(rows[:, j], pre, "\n" + inner + "]" if j == last else "")
    return "".join(cells.reshape(-1).tolist())[len(inner) + 2:]


def _write_array(fh: TextIO, arr: np.ndarray, indent: str) -> None:
    """Write the nonempty ``arr`` as ``json.dumps(arr.tolist(), indent=2)``
    lays it out.

    ``indent`` is the indentation of the line the array starts on.  The
    array is encoded in blocks of JSON_BLOCK_ROWS rows, each written as it
    is encoded.
    """
    inner = indent + "  "
    for start in range(0, len(arr), JSON_BLOCK_ROWS):
        # every row is preceded by ",\n" + inner but the array's first,
        # by "[\n" + inner
        fh.write(("[\n" if start == 0 else ",\n") + inner)
        fh.write(_encode(arr[start:start + JSON_BLOCK_ROWS], inner))
    fh.write("\n" + indent + "]")


def write_json(path: Path, config: dict, payload: dict) -> None:
    """JSON document whose first key is the reproducibility header.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``
    with every numpy array in ``payload`` given as its ``tolist()``.  Each
    chunk of ``JSONEncoder.iterencode`` goes to the file as it comes, so
    the document's text is never held whole, and each array is streamed
    in row blocks where its placeholder chunk comes, so no list of its
    entries is ever built.  An array that cannot be streamed raises before
    the file is opened.
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
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(_lift_arrays(doc, arrays))
    with path.open("w") as fh:
        # the text after the last newline written, in the chunk that holds
        # it: the indentation of the line being written
        line = ""
        for chunk in chunks:
            # a string value ends its chunk, so a placeholder does
            found = _ARRAY_PLACEHOLDER.search(chunk)
            text = chunk if found is None else chunk[:found.start()]
            fh.write(text)
            if "\n" in text:
                line = text[text.rfind("\n") + 1:]
            if found is not None:
                _write_array(fh, arrays[int(found[1])], " " * (len(line) - len(line.lstrip(" "))))
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
