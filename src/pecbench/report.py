"""Artifact emission: CSV / JSON grids and static SVG heatmaps.

Every grid artifact carries a provenance block (config hash, package
version, seed) and round-trips through its serialized form: GridArtifact's
constructor pins the float cells to 12 significant digits, for the builders,
the parsers and direct callers alike, so parse(emit(x)) == x and
re-emission is byte-identical.  Every emitter reads the cells and digits
that construction stored.

Pinning is one numpy pass per column: for e = floor(log10|v|),
k = rint(|v| 10^(11 - e)) holds the digits ``.11e`` prints, and the pinned
value is one IEEE multiply or divide of k by an exact power of ten
(Clinger's fast path).  "Slow" cells (non-finite, subnormal, |v| outside
[1e-297, 1e308), or within the scaling error of a half-way decimal) are
formatted and parsed one by one.

Construction keeps those cells as arrays; the row_values, col_values and
columns tuples are built when a caller first reads them, and no emitter
does.

CSV lines and JSON grid bodies are the columns of one (slots x cells) byte
matrix.  Each field is a block of slots with its tokens in columns: a fast
float's sign, digits, ".", "e", exponent sign and digits from numpy
arithmetic, ints and strings from a table of distinct tokens, slow cells'
Python tokens copied in.  Unused slots hold 0xFF, a byte UTF-8 never uses,
so the matrix is transposed once and the padding dropped once.  A CSV line
is the blocks of its fields with "," rows between them and a newline row
last.  A JSON grid is its column's block over one row of marks, 0xFE after
a cell and 0xFD after a row's last (bytes UTF-8 never uses either), which
two bytes.replace calls turn into the separators.  CSV cells are '.11e' of
the pinned values, JSON cells their repr: the digits without trailing
zeros, fixed for exponents -4 .. 15, where a JSON digit slot holds digit r
before the "." and digit r - 1 past it.
SVG cells take a fixed ramp (clipped to [0, 1], channels rounded half to even,
non-finite grey); a panel's rect lines are 2-D arrays filled from templates.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from itertools import compress, groupby, repeat

import numpy as np

from . import __version__
from .advantage import LABEL_NONE, LABEL_PEC, LABEL_RAW, RegimeGrid
from .errors import ValidationError

# Fixed color ramp for continuous [0, 1] heatmaps: dark blue -> yellow,
# linearly interpolated between these RGB stops.
COLOR_RAMP = (
    (0.00, (13, 8, 135)),
    (0.25, (126, 3, 168)),
    (0.50, (204, 71, 120)),
    (0.75, (248, 149, 64)),
    (1.00, (240, 249, 33)),
)

REGIME_COLORS = {LABEL_PEC: "#2a788e", LABEL_RAW: "#7ad151", LABEL_NONE: "#440154"}
_NO_COLOR = "#bbbbbb"
SVG_CELL = 8  # side of a grid cell's rect, in SVG pixels

_token = "{:.11e}".format
_RAMP_STOPS = np.array([stop for stop, _ in COLOR_RAMP])
_RAMP_RGB = np.array([rgb for _, rgb in COLOR_RAMP], dtype=float).T  # channel x stop
_NO_RGB = np.frombuffer(bytes.fromhex(_NO_COLOR[1:]), dtype=np.uint8)
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# 10^m as the nearest double (int -> float rounds correctly), m = 0 .. 308;
# exact up to m = 22
_POW10 = np.array([float(10 ** m) for m in range(309)])
_EXACT_POW10 = 22
_ZERO, _DOT, _MINUS, _PLUS, _E, _COMMA, _NEWLINE = b"0.-+e,\n"
# exact digits need the scaled cell's distance to a half-integer to beat
# its scaling error, <= 2 roundings x 2^-53 x 1e12 = 2.3e-4
_TIE_MARGIN = 1e-3
_PAD = 0xFF  # a byte UTF-8 never uses: marks the slots a token leaves empty
# bytes UTF-8 never uses either: a JSON grid's marks after a cell and after a row's last
_CELL_END, _ROW_END = 0xFE, 0xFD
_EXPONENT_DIGITS = (np.arange(309) // np.array([[100], [10], [1]]) % 10 + _ZERO).astype(np.uint8)


# .11e's rounding of flat float cells: (-1)^negative k 10^(exponent - 11), k in [1e11, 1e12) or 0
_Decimal = namedtuple("_Decimal", "negative k exponent fast")


def _scale(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x 10^m by one correctly rounded multiply or divide, for |m| <= 308."""
    return np.where(m >= 0, x * _POW10[np.maximum(m, 0)], x / _POW10[np.maximum(-m, 0)])


def _decimal(v: np.ndarray) -> _Decimal:
    """k = rint(|v| 10^(11 - e)) with e = floor(log10 |v|), by float arithmetic.

    The scaled cell lies in [1e11, 1e12) and two correctly rounded
    operations put it within 2.3e-4 of the exact product, so away from
    half-integers its rint is the integer .11e rounds to.  A rint of 1e12
    carries into the exponent; a log10 off by one near a power of ten
    leaves the range and the cell is slow.
    """
    a = np.abs(v)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= -297) & (e <= 307)  # false for 0, nan and inf
    a = np.where(fast, a, 0.0)
    e = np.where(fast, e, 0.0).astype(np.int64)
    scaled = _scale(a, 11 - e)
    k = np.rint(scaled)
    carry = k == 1e12  # 9.999999999996e-01 prints as 1.00000000000e+00
    k = np.where(carry, 1e11, k)
    e += carry
    fast &= (k >= 1e11) & (k < 1e12) & (np.abs(scaled - np.floor(scaled) - 0.5) > _TIE_MARGIN)
    fast |= v == 0.0
    return _Decimal(np.signbit(v), np.where(fast, k, 0.0), np.where(fast, e, 0), fast)


def _digits(k: np.ndarray) -> np.ndarray:
    """The 12 ASCII digits of each integer-valued k < 1e12, one row per place."""
    digits, q = np.empty((12, k.size), dtype=np.uint8), k
    for place in range(11, -1, -1):  # floor(q * 0.1) is q // 10: the double 0.1 is
        tenth = np.floor(q * 0.1)  # just above 1/10, and 2-3x faster than int64 //
        digits[place] = q - 10.0 * tenth
        q = tenth
    digits += _ZERO
    return digits


def _padded(tokens: list, width=None) -> np.ndarray:
    """(len(tokens), width) bytes: each token's UTF-8, then 0xFF; width is the longest's."""
    data = [token.encode() for token in tokens]
    width = max(map(len, data), default=0) if width is None else width
    data = b"".join(d.ljust(width, b"\xff") for d in data)
    return np.frombuffer(data, dtype=np.uint8).reshape(len(tokens), width)


def _cells_of(values, what: str = "cells") -> tuple:
    """(values, digits) of an axis or column: its cells as one flat array, and their _Decimal.

    Strings stay strings and integers (numpy's too) Python ints, with digits
    None; any other field is float and pinned to 12 significant digits: each
    cell becomes float() of its .11e string.  For a fast cell with
    |exponent - 11| <= 22 both k and 10^|exponent - 11| are exact doubles, so
    one IEEE multiply or divide gives the correctly rounded value float()
    would (Clinger's fast path); other cells are formatted and parsed one by
    one.  A pinned cell pins to itself; mixed kinds raise ValidationError.
    """
    # a sequence's own objects: a numpy string array is as wide as its
    # longest string in every cell
    array = np.ravel(values) if isinstance(values, np.ndarray) else np.asarray(
        values, dtype=object).ravel()
    if array.dtype.kind != "f":  # ints, strings, mixed types: the values as given
        array = array.astype(object, copy=False)
        kinds = set(map(type, array))
        if all(issubclass(k, str) for k in kinds) or all(
                issubclass(k, (int, np.integer)) for k in kinds):
            return array, None
    try:
        array = array.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} mixes kinds: {exc}") from None
    digits = _decimal(array)
    m = digits.exponent - 11
    exact = digits.fast & (np.abs(m) <= _EXACT_POW10)
    q = _scale(digits.k, np.where(exact, m, 0))
    pinned = np.where(digits.negative, -q, q)
    slow = np.flatnonzero(~exact)
    pinned[slow] = [float(_token(v)) for v in array[slow].tolist()]
    return pinned, digits


def _table_block(values: np.ndarray, as_json: bool) -> np.ndarray:
    """(slots, cells) bytes of int or string cells, from a table of their distinct tokens."""
    if not values.size:
        return np.empty((0, 0), dtype=np.uint8)
    values = values.tolist()
    distinct = list(dict.fromkeys(values))
    index = {value: i for i, value in enumerate(distinct)}
    choice = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
    tokens = ([str(int(v)) for v in distinct] if not isinstance(distinct[0], str)
              else list(map(json.dumps, distinct)) if as_json else distinct)
    return _padded(tokens)[choice].T


def _unpadded(block: np.ndarray) -> bytes:
    """The block's tokens, column after column, with the padding dropped."""
    flat = block.T.ravel()
    return flat[flat != _PAD].tobytes()


def _cut(block: np.ndarray) -> list:
    """Each column's token of a padded block, as a str."""
    ends = np.cumsum(np.count_nonzero(block != _PAD, axis=0)).tolist()
    data = _unpadded(block)
    return [data[a:b].decode() for a, b in zip([0] + ends[:-1], ends)]


# --- CSV tokens: a block of byte slots per field ------------------------

# a '.11e' token's slots: sign, digit 0, ".", digits 1-11, "e", exponent sign,
# hundreds, tens, ones; no finite double's, nan's or inf's token is longer
_FLOAT_SLOTS = 19


def _exponent(e: np.ndarray) -> np.ndarray:
    """(4, cells) bytes: each exponent's sign, hundreds (0xFF under 100), tens and ones."""
    magnitude = np.abs(e)
    slots = np.empty((4, e.size), dtype=np.uint8)
    slots[0] = np.where(e < 0, np.uint8(_MINUS), np.uint8(_PLUS))
    slots[1] = np.where(magnitude >= 100, _EXPONENT_DIGITS[0][magnitude], np.uint8(_PAD))
    slots[2:] = _EXPONENT_DIGITS[1:, magnitude]
    return slots


def _csv_block(cells: tuple) -> np.ndarray:
    """(slots, cells) bytes: column c holds cell c's CSV token, padded with 0xFF."""
    values, digits = cells
    if digits is None:
        return _table_block(values, as_json=False)
    negative, k, e, fast = digits
    block = np.empty((_FLOAT_SLOTS, fast.size), dtype=np.uint8)
    block[0] = np.where(negative, np.uint8(_MINUS), np.uint8(_PAD))
    places = _digits(k)
    block[1], block[2], block[3:14], block[14] = places[0], _DOT, places[1:], _E
    block[15:] = _exponent(e)
    slow = np.flatnonzero(~fast)
    block[:, slow] = _padded(list(map(_token, values[slow].tolist())), _FLOAT_SLOTS).T
    return block


def _tokens(cells: tuple, take=None) -> list:
    """Each cell's CSV token, or cell take[r]'s as token r; "" for a cell of no axis."""
    values, digits = cells
    if take is not None:
        if not values.size:
            return [""] * len(take)
        cells = values[take], None if digits is None else _Decimal(*(a[take] for a in digits))
    return _cut(_csv_block(cells))


# --- JSON tokens: the same blocks in repr's layout ----------------------

# a JSON float token's slots: sign; "0." and up to three zeros (e = -4 .. -1);
# 18 for its digits and "." (1000000000000000.0 at e = 15 fills them); "e",
# exponent sign and two or three digits.  No double's repr is longer.
_JSON_SLOTS = 29
_NO_DOT = 18  # past the digit slots: a token with no "."
_DIGIT_ROWS = np.arange(_NO_DOT, dtype=np.int8)[:, None]
_ZERO_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]


def _json_block(cells: tuple) -> np.ndarray:
    """(slots, cells) bytes: column c holds json.dumps of cell c, padded with 0xFF.

    A fast float is repr of its sign and 12 digits, without trailing
    zeros: after "0." and -e - 1 zeros (e = -4 .. -1); with a "." after
    digit e and at least one digit after it (e = 0 .. 15); else as
    d.ddde-XX, with no "." for one digit.  Digit slot r holds digit r
    before the "." and digit r - 1 past it.
    """
    values, digits = cells
    if digits is None:
        return _table_block(values, as_json=True)
    negative, k, e, fast = digits
    places = _digits(k)
    count = np.maximum(((places != _ZERO) * _DIGIT_ROWS[1:13]).max(axis=0), 1)
    small, large = (e >= -4) & (e < 0), (e >= 0) & (e <= 15)
    sci = np.flatnonzero(~(small | large))
    dot = np.where(large, e + 1, _NO_DOT).astype(np.int8)
    dot[sci[count[sci] > 1]] = 1
    length = (np.where(large, np.maximum(count, e + 2), count) + (dot < _NO_DOT)).astype(np.int8)
    block = np.full((_JSON_SLOTS, fast.size), _PAD, dtype=np.uint8)
    block[0, negative] = _MINUS
    np.copyto(block[1:6], _ZERO_PREFIX, where=_DIGIT_ROWS[:5] < np.where(small, 1 - e, 0))
    region = block[6:24]
    region[:12], region[12:] = places, _ZERO  # digits past the 12th are zeros
    np.copyto(region[1:13], places, where=_DIGIT_ROWS[1:13] > dot)
    point = np.flatnonzero(dot < _NO_DOT)
    region[dot[point], point] = _DOT
    np.copyto(region, _PAD, where=_DIGIT_ROWS >= length)
    block[24, sci], block[25:, sci] = _E, _exponent(e[sci])
    slow = np.flatnonzero(~fast)
    tokens = [_JSON_NONFINITE.get(t, t) for t in map(float.__repr__, values[slow].tolist())]
    block[:, slow] = _padded(tokens, _JSON_SLOTS).T
    return block


def _json_tokens(cells: tuple) -> list:
    """What json.dumps writes for each cell."""
    return _cut(_json_block(cells))


_VIEWS = ("row_values", "col_values", "columns")


@dataclass(frozen=True)
class GridArtifact:
    """A 2-D sweep result plus provenance, in serialization-ready form.

    columns maps a column name to a row-major grid.  Construction pins the
    float cells of every axis and column to emission precision, whoever
    builds the artifact (the builders, the parsers, a caller with raw
    arrays), and keeps them as flat arrays, which the emitters read.  The
    first read of row_values, col_values or columns builds it as tuples:
    the axes flat, each column a tuple of row tuples of floats, ints or
    strings.
    """

    kind: str
    row_name: str
    row_values: tuple
    col_name: str
    col_values: tuple
    columns: dict
    provenance: dict

    def __post_init__(self):
        for key in ("config_hash", "version", "seed"):
            if key not in self.provenance:
                raise ValidationError(f"provenance block is missing {key!r}")
        shape = (len(self.row_values), len(self.col_values))
        for name, grid in self.columns.items():
            widths = set(map(len, grid)) or {0}
            if (len(grid), *widths) != shape:
                raise ValidationError(f"column {name!r} has {len(grid)} rows of lengths "
                                      f"{sorted(widths)}, expected shape {shape}")
        rows = _cells_of(self.row_values, "the row axis")
        cols = _cells_of(self.col_values, "the col axis")
        columns = {name: _cells_of(grid, f"column {name!r}")
                   for name, grid in self.columns.items()}
        # not a field: (rows, cols, {name: cells}) from _cells_of, which the emitters read
        object.__setattr__(self, "_flat", (rows, cols, columns))
        for name in _VIEWS:  # __getattr__ builds them from _flat when first read
            object.__delattr__(self, name)

    def __getattr__(self, name: str):
        if name not in _VIEWS or "_flat" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows, cols, columns = self._flat
        if name == "columns":
            shape = (rows[0].size, cols[0].size)
            view = {column: tuple(map(tuple, values.reshape(shape).tolist()))
                    for column, (values, _) in columns.items()}
        else:
            view = tuple((rows if name == "row_values" else cols)[0].tolist())
        object.__setattr__(self, name, view)
        return view


def make_provenance(config_hash: str, seed: int) -> dict:
    return {"config_hash": config_hash, "version": __version__, "seed": int(seed)}


def phase_artifact(grid: RegimeGrid, provenance: dict) -> GridArtifact:
    return GridArtifact(
        "phase-diagram", "p", grid.p_values, "n_shots", list(map(int, grid.shot_values)),
        {"pec_success": grid.pec_success, "raw_success": grid.raw_success,
         "label": grid.label},
        provenance,
    )


def centering_artifact(shift_axis, width_axis, true_grid, proxy_grid, error_grid,
                       provenance: dict) -> GridArtifact:
    return GridArtifact(
        "centering", "rel_shift", shift_axis, "rel_width", width_axis,
        {"true_success": true_grid, "proxy_success": proxy_grid,
         "relative_error": error_grid},
        provenance,
    )


# --- CSV ---------------------------------------------------------------

def grid_to_csv(artifact: GridArtifact) -> str:
    """One line per cell: its row and column tokens, then one token per column."""
    rows, cols, columns = artifact._flat
    lines = [f"# kind={artifact.kind}"]
    for key in sorted(artifact.provenance):
        lines.append(f"# {key}={artifact.provenance[key]}")
    lines.append(",".join([artifact.row_name, artifact.col_name, *columns]))
    head = "\n".join(lines) + "\n"
    n_rows, n_cols = rows[0].size, cols[0].size
    if not n_rows * n_cols:
        return head
    blocks = [_csv_block(cells) for cells in (rows, cols, *columns.values())]
    # each block, then a "," after it, or the "\n" that ends the line
    matrix = np.empty((sum(map(len, blocks)) + len(blocks), n_rows * n_cols), dtype=np.uint8)
    at = 0
    for field, block in enumerate(blocks):
        slots = matrix[at:at + len(block)]
        if field < 2:  # an axis token: the row's in n_cols lines, each column's once a row
            grid = slots.reshape(len(block), n_rows, n_cols)
            grid[...] = block[:, :, None] if field == 0 else block[:, None, :]
        else:
            slots[...] = block
        at += len(block)
        matrix[at] = _COMMA
        at += 1
    matrix[-1] = _NEWLINE
    return head + _unpadded(matrix).decode()


_KINDS = (int, float, str)
_PARSE_ROWS = 2048  # rows split at a time: bounds the token strings alive at once


def _parse_columns(rows: list, width: int) -> list:
    """Each column's values: all ints if every token is one, else all floats, else strs.

    A column whose token fails its kind moves on to the next kind, and the
    rows are parsed again; a float column fails int at its first token.
    """
    kinds = [0] * width
    while True:
        columns = [[] for _ in range(width)]
        try:
            for start in range(0, len(rows), _PARSE_ROWS):
                tokens = ",".join(rows[start:start + _PARSE_ROWS]).split(",")
                for column, values in enumerate(columns):
                    values += map(_KINDS[kinds[column]], tokens[column::width])
            return columns
        except ValueError:
            kinds[column] += 1


def parse_grid_csv(text: str) -> GridArtifact:
    lines = list(filter(str.strip, text.splitlines()))
    is_meta = np.array(list(map(str.startswith, lines, repeat("#"))), dtype=bool)
    meta = {}
    for line in compress(lines, is_meta.tolist()):
        key, _, value = line[1:].strip().partition("=")
        meta[key.strip()] = value.strip()
    body = list(compress(lines, (~is_meta).tolist()))
    if len(body) < 2:
        raise ValidationError("CSV grid has no data rows")
    header, rows = body[0].split(","), body[1:]
    if set(map(str.count, rows, repeat(","))) != {len(header) - 1}:
        raise ValidationError(f"CSV grid rows must have {len(header)} fields")
    kind = meta.pop("kind", "grid")
    if "seed" in meta:
        try:
            meta["seed"] = int(meta["seed"])
        except ValueError:
            raise ValidationError(f"CSV grid line '# seed={meta['seed']}' is not an "
                                  "integer seed") from None
    row_name, col_name, *names = header
    # the axes from the line layout, by token: equal floats such as 0.0 and
    # -0.0 are distinct axis cells.  A row's lines run through the column
    # axis, so the leading lines up to the first new row token hold it.
    first = rows[0].partition(",")[0] + ","
    width = next((i for i, line in enumerate(rows) if not line.startswith(first)), len(rows))
    height = len(rows) // width
    row_tokens = [line.partition(",")[0] for line in rows[::width]]
    col_tokens = [line.split(",", 2)[1] for line in rows[:width]]
    # a run that repeats a shorter one could also be several rows of that one
    if any(col_tokens == col_tokens[:p] * (width // p) for p in range(1, width) if width % p == 0):
        raise ValidationError("CSV grid axes are ambiguous: the column tokens of the first "
                              "row token repeat")
    end, match = (",", str.startswith) if names else ("", str.__eq__)
    heads = (f"{r},{c}{end}" for r in row_tokens for c in col_tokens)
    if height * width != len(rows) or not all(map(match, rows, heads)):
        raise ValidationError("CSV grid is ragged or out of order")
    row_cells, col_cells, *cells = _parse_columns(rows, len(header))
    del lines, body, rows  # the text's lines, before construction pins the cells
    row_values, col_values = tuple(row_cells[::width]), tuple(col_cells[:width])
    columns = {name: [values[i * width:(i + 1) * width] for i in range(height)]
               for name, values in zip(names, cells)}
    return GridArtifact(kind=kind, row_name=row_name, row_values=row_values,
                        col_name=col_name, col_values=col_values,
                        columns=columns, provenance=meta)


# --- JSON --------------------------------------------------------------

def _json_container(items, depth: int, brackets: str = "[]") -> str:
    """A container of rendered items as json.dumps(indent=2) lays it out at depth."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _json_member(key: str, rendered: str) -> str:
    return f"{json.dumps(key)}: {rendered}"


def grid_to_json(artifact: GridArtifact) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) of the artifact, written by hand."""
    rows, cols, columns = artifact._flat
    n_rows, n_cols = rows[0].size, cols[0].size

    def axis(name: str, cells: tuple) -> str:
        return _json_container([_json_member("name", json.dumps(name)),
                                _json_member("values", _json_container(_json_tokens(cells), 3))],
                               2, "{}")

    def grid(cells: tuple) -> str:
        if not n_rows * n_cols:
            return _json_container(["[]"] * n_rows, 2)
        block = _json_block(cells)
        marks = np.full((1, block.shape[1]), _CELL_END, dtype=np.uint8)
        marks[0, n_cols - 1::n_cols] = _ROW_END
        body = _unpadded(np.vstack([block, marks]))[:-1]  # no mark after the last cell
        body = body.replace(bytes([_CELL_END]), b",\n        ")
        body = body.replace(bytes([_ROW_END]), b"\n      ],\n      [\n        ")
        return "[\n      [\n        " + body.decode() + "\n      ]\n    ]"

    provenance = json.dumps(artifact.provenance, sort_keys=True, indent=2)
    doc = _json_container([
        _json_member("axes", _json_container([
            _json_member("col", axis(artifact.col_name, cols)),
            _json_member("row", axis(artifact.row_name, rows))], 1, "{}")),
        _json_member("columns", _json_container(
            [_json_member(name, grid(columns[name])) for name in sorted(columns)], 1, "{}")),
        _json_member("kind", json.dumps(artifact.kind)),
        _json_member("provenance", provenance.replace("\n", "\n  ")),
    ], 0, "{}")
    return doc + "\n"


_JSON_KINDS = {list: "list", dict: "object"}


def _member(doc, *path, kind=object):
    """doc[path[0]][path[1]]...; ValidationError naming a key that is missing or not a kind."""
    for depth, key in enumerate(path):
        if not isinstance(doc, dict) or key not in doc:
            raise ValidationError(f"JSON grid has no {'.'.join(path[:depth + 1])!r} key")
        doc = doc[key]
    if not isinstance(doc, kind):
        raise ValidationError(f"JSON grid key {'.'.join(path)!r} is not a JSON "
                              f"{_JSON_KINDS[kind]}")
    return doc


def _json_columns(doc) -> dict:
    """doc's columns; ValidationError naming one that is not a list of row lists."""
    columns = _member(doc, "columns", kind=dict)
    for name, grid in columns.items():
        if not (isinstance(grid, list) and all(isinstance(row, list) for row in grid)):
            raise ValidationError(f"JSON grid key 'columns.{name}' is not a list of row lists")
    return columns


def parse_grid_json(text: str) -> GridArtifact:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"JSON grid is not JSON: {exc}") from None
    return GridArtifact(
        kind=_member(doc, "kind"),
        row_name=_member(doc, "axes", "row", "name"),
        row_values=_member(doc, "axes", "row", "values", kind=list),
        col_name=_member(doc, "axes", "col", "name"),
        col_values=_member(doc, "axes", "col", "values", kind=list),
        columns=_json_columns(doc),
        provenance=_member(doc, "provenance", kind=dict),
    )


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# --- SVG ---------------------------------------------------------------

def _hex_colors(name: str, values: np.ndarray) -> np.ndarray:
    """Six ASCII hex digits per cell: its regime's color, else COLOR_RAMP's."""
    if name == "label":
        values = values.tolist()
        color = {v: REGIME_COLORS.get(str(v), _NO_COLOR)[1:] for v in set(values)}
        hexes = "".join(map(color.__getitem__, values))
        return np.frombuffer(hexes.encode(), dtype=np.uint8).reshape(-1, 6)
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    v = np.clip(np.where(finite, v, 0.0), 0.0, 1.0)
    seg = np.searchsorted(_RAMP_STOPS[1:], v)  # the first upper stop >= v
    f = (v - _RAMP_STOPS[seg]) / (_RAMP_STOPS[seg + 1] - _RAMP_STOPS[seg])
    rgb = np.stack([np.rint(c[seg] + f * (c[seg + 1] - c[seg])) for c in _RAMP_RGB], axis=1)
    rgb = np.where(finite[:, None], rgb, _NO_RGB).astype(np.uint8)
    nibble = np.stack([rgb >> 4, rgb & 15], axis=2).reshape(-1, 6)
    return nibble + np.uint8(_ZERO) + (nibble > 9) * np.uint8(ord("a") - ord("9") - 1)


def _rects(xs: list, ys: list, hexes: np.ndarray) -> list:
    """A panel's rect lines from its x and y tokens and (rows, cols x 6) hex digits.

    Rows whose y token has one length share a byte layout, so each band of
    them is one 2-D array: the row template (constant text and x tokens) is
    broadcast into it, then its y and hex digits are column writes.
    """
    bands = []
    for size, band in groupby(range(len(ys)), key=lambda i: len(ys[i])):
        band = list(band)
        template = np.frombuffer("".join(  # \x01 marks the y digits, \x02 the color's
            f'<rect x="{x}" y="{chr(1) * size}" width="{SVG_CELL}" height="{SVG_CELL}" '
            f'fill="#{chr(2) * 6}"/>\n' for x in xs).encode(), dtype=np.uint8)
        rows = np.tile(template, (len(band), 1))
        y = np.frombuffer("".join(ys[i] for i in band).encode(), dtype=np.uint8)
        rows[:, np.flatnonzero(template == 1).reshape(-1, size)] = y.reshape(-1, 1, size)
        rows[:, template == 2] = hexes[band[0]:band[-1] + 1]
        bands.append(str(rows, "ascii"))
    return bands


def grid_to_svg(artifact: GridArtifact) -> str:
    """One panel per column, drawn as a grid of colored rects.

    Deterministic: depends only on the artifact contents; the provenance
    block is embedded as a <metadata> element.
    """
    rows, cols, columns = artifact._flat
    names = list(columns)
    n_rows, n_cols = rows[0].size, cols[0].size
    row_tokens, col_tokens = (_tokens(c, [0, len(c[0]) - 1]) for c in (rows, cols))
    margin, gap, title_h = 40, 30, 18
    panel_w, panel_h = n_cols * SVG_CELL, n_rows * SVG_CELL
    width = margin * 2 + len(names) * panel_w + (len(names) - 1) * gap
    height = margin * 2 + panel_h + title_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n',
        "<metadata>"
        + " ".join(f"{k}={artifact.provenance[k]}" for k in sorted(artifact.provenance))
        + f" kind={artifact.kind}</metadata>\n",
        f'<rect width="{width}" height="{height}" fill="white"/>\n',
    ]
    y0 = margin + title_h
    # row 0 at the bottom so both axes increase up/right
    ys = [str(y0 + (n_rows - 1 - i) * SVG_CELL) for i in range(n_rows)]
    for k, name in enumerate(names):
        x0 = margin + k * (panel_w + gap)
        parts.append(
            f'<text x="{x0}" y="{margin + 12}" font-family="monospace" '
            f'font-size="12">{name}</text>\n')
        hexes = _hex_colors(name, columns[name][0]).reshape(n_rows, -1)
        parts += _rects([str(x0 + j * SVG_CELL) for j in range(n_cols)], ys, hexes)
        parts.append(
            f'<text x="{x0}" y="{y0 + panel_h + 14}" font-family="monospace" '
            f'font-size="10">{artifact.col_name}: {col_tokens[0]}'
            f' .. {col_tokens[-1]}</text>\n')
    parts.append(
        f'<text x="{margin}" y="{height - 8}" font-family="monospace" '
        f'font-size="10">{artifact.row_name}: {row_tokens[0]} .. '
        f'{row_tokens[-1]} (bottom to top)</text>\n</svg>\n')
    return "".join(parts)
