"""Artifact emission: CSV / JSON grids and static SVG heatmaps.

Every grid artifact carries a provenance block (config hash, package
version, seed) and round-trips through its serialized form: numeric cells
are pinned to 12 significant digits at artifact-construction time, so
parse(emit(x)) == x and re-emission is byte-identical.

Emission is array-first: numpy computes each float cell's 12 digits once,
and Python touches single cells only where those fast paths flag them.
For e = floor(log10|v|) the integer k = rint(|v| 10^(11 - e)) holds the
digits ``.11e`` prints, unless the cell sits within the scaling error
(<= 2.3e-4) of a half-integer.  The pinned value is float() of that
string, which one IEEE multiply or divide of k by an exact 10^|e - 11|
gives when |e - 11| <= 22 (Clinger's fast path).  Flagged cells (non-finite,
|v| outside [1e-297, 1e308), near a tie, or out of that exponent range for
the value) are formatted with ``.11e`` and parsed one by one.
CSV tokens are the ``.11e`` strings of the pinned values.  For a normal
float or zero that is the string it was pinned from, so the digits above
are written into one byte array and split once.  A subnormal carries
fewer significant bits, so its pinned value can print differently
(1.000000000003e-312 formats as 1.00000000000e-312 and pins to a value
that prints as 9.99999999998e-313); subnormal cells are flagged and
formatted from the pinned value.  Non-finite cells format as nan / inf /
-inf.
JSON cells are the pinned floats' repr, built from the same digits: no
other decimal of at most 12 digits rounds to a normal pinned double, so
its repr is those digits without trailing zeros, in fixed notation for
exponents -4 .. 15 and scientific otherwise.  Grid bodies are laid out in
json.dumps's indent-2 layout; json.dumps itself writes only the names and
provenance.
SVG cells are colored by one numpy pass over a fixed ramp: each value is
clipped to [0, 1], takes the first ramp segment whose upper stop it does
not exceed, and each channel is rounded with np.rint, half to even like
the builtin round; the "#rrggbb" strings are written into one byte array.
Non-finite cells are grey.  SVG output is a pure function of the
artifact — no timestamps — with the provenance embedded as metadata text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, compress, repeat

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

_token = "{:.11e}".format
_RAMP_STOPS = np.array([stop for stop, _ in COLOR_RAMP])
_RAMP_RGB = np.array([rgb for _, rgb in COLOR_RAMP], dtype=float).T  # channel x stop
_NO_RGB = np.frombuffer(bytes.fromhex(_NO_COLOR[1:]), dtype=np.uint8)
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# 10^m as the nearest double (int -> float rounds correctly), m = 0 .. 308;
# exact up to m = 22
_POW10 = np.array([float(10 ** m) for m in range(309)])
_EXACT_POW10 = 22
_ZERO, _DOT, _MINUS, _PLUS, _E, _COMMA = b"0.-+e,"
# exact digits need the scaled cell's distance to a half-integer to beat
# its scaling error, <= 2 roundings x 2^-53 x 1e12 = 2.3e-4
_TIE_MARGIN = 1e-3
# cells per numpy pass: a block's temporaries stay under 100 kB, where a
# whole 40,000-cell column would hold megabytes of them at once
_BLOCK = 2048


class _Decimal:
    """Flat float cells rounded to 12 significant digits, as .11e rounds them.

    A fast cell is (-1)^negative * k * 10^(exponent - 11), with k an integer
    in [1e11, 1e12), or k = 0 for a zero.  The other cells (non-finite,
    |v| outside [1e-297, 1e308), or within the scaling error of a half-way
    decimal) are printed one by one.  A plain class: a dataclass would add
    about 2 ms to every import.
    """

    __slots__ = ("negative", "k", "exponent", "fast")

    def __init__(self, negative: np.ndarray, k: np.ndarray, exponent: np.ndarray,
                 fast: np.ndarray):
        self.negative, self.k, self.exponent, self.fast = negative, k, exponent, fast


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
    q = k.astype(np.int64)
    digits = np.empty((12, q.size), dtype=np.uint8)
    for place in range(11, -1, -1):
        q, digits[place] = np.divmod(q, 10)
    digits += _ZERO
    return digits


def _join(chars: np.ndarray, keep: np.ndarray | None = None) -> list:
    """One str per cell from (width, cells) arrays of bytes and keep flags.

    Column j holds cell j's bytes, so every write that builds them is a
    contiguous row; the last row is the separator.
    """
    chars[-1] = _COMMA
    if keep is None:
        kept = chars.T.tobytes()
    else:
        keep[-1] = True
        kept = chars.T.ravel()[keep.T.ravel()].tobytes()
    return kept.decode().split(",")[:-1]


def _exponent_rows(chars: np.ndarray, keep: np.ndarray, e: np.ndarray) -> None:
    """Write e+XX / e-XXX into the 5 rows before the separator."""
    ae = np.abs(e)
    chars[-6] = _E
    chars[-5] = np.where(e < 0, _MINUS, _PLUS)
    chars[-4] = ae // 100 + _ZERO
    chars[-3] = ae // 10 % 10 + _ZERO
    chars[-2] = ae % 10 + _ZERO
    keep[-4] &= ae >= 100


def _blocks(v: np.ndarray):
    """Consecutive runs of _BLOCK cells of a flat array."""
    return (v[lo:lo + _BLOCK] for lo in range(0, v.size, _BLOCK))


def _printed(values: list, decimals: list, layout, one) -> list:
    """layout's tokens for the fast cells of each block, one(value) for the others."""
    tokens = []
    for dec in decimals:
        base = len(tokens)
        tokens += layout(dec)
        for k in np.flatnonzero(~dec.fast).tolist():
            tokens[base + k] = one(values[base + k])
    return tokens


def _sci_block(dec: _Decimal) -> list:
    """'{:.11e}' of each fast cell from its digits; "" for the others."""
    digits = _digits(dec.k)
    # rows: sign, d, ".", 11 digits, exponent (5), separator
    chars = np.empty((20, dec.fast.size), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    chars[0], keep[0] = _MINUS, dec.negative
    chars[1] = digits[0]
    chars[2] = _DOT
    chars[3:14] = digits[1:]
    _exponent_rows(chars, keep, dec.exponent)
    keep[:, ~dec.fast] = False
    return _join(chars, keep)


def _json_float(value: float) -> str:
    """What json.dumps writes for one float."""
    token = repr(value)
    return _JSON_NONFINITE.get(token, token)


def _repr_block(dec: _Decimal) -> list:
    """float.__repr__ of the double nearest each fast cell's 12 digits; "" for the others.

    For a normal double no other decimal of at most 12 digits rounds to the
    same value, so its shortest repr is those digits without trailing zeros:
    fixed notation for exponents -4 .. 15 (0.000123, 1230.0), scientific
    otherwise (1.23e-05, 1e+16).
    """
    digits = _digits(dec.k)
    e = dec.exponent
    significant = digits != _ZERO
    count = np.where(significant.any(axis=0), 12 - np.argmax(significant[::-1], axis=0), 1)
    fixed = (e >= -4) & (e <= 15)
    small, large, sci = fixed & (e < 0), fixed & (e >= 0), ~fixed
    last = np.where(large, np.maximum(count, e + 2), count)  # integer digits + "0"
    # rows: sign, "0." and 3 zeros (small e), 17 x (digit, dot), exponent (5), separator
    chars = np.empty((46, dec.fast.size), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    chars[0], keep[0] = _MINUS, dec.negative
    chars[1:6] = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
    keep[1:3] = small
    for z in range(3):
        keep[3 + z] = small & (z < -e - 1)
    for place in range(17):
        chars[6 + 2 * place] = digits[place] if place < 12 else _ZERO
        keep[6 + 2 * place] = place < last
        chars[7 + 2 * place] = _DOT
        keep[7 + 2 * place] = large & (e == place)
    keep[7] |= sci & (count > 1)
    keep[40:45] = sci
    _exponent_rows(chars, keep, e)
    keep[:, ~dec.fast] = False
    return _join(chars, keep)


@dataclass(frozen=True)
class _Cells:
    """One column or axis, flat and row-major.

    kind is "float", "int" or "str"; shape is the input's shape.  decimals
    hold the digits of float cells pinned by a builder, one _Decimal per
    _BLOCK cells; CSV and JSON print from them.
    """

    kind: str
    values: list
    shape: tuple = ()
    decimals: list | None = None

    def nested(self) -> tuple:
        rows, width = self.shape
        return tuple(tuple(self.values[i * width:(i + 1) * width]) for i in range(rows))


def _pinned(array) -> _Cells:
    """Pin cells to 12 significant digits: each becomes float() of its .11e string.

    For a fast cell with |exponent - 11| <= 22 both k and 10^|exponent - 11|
    are exact doubles, so one IEEE multiply or divide gives the correctly
    rounded value float() would (Clinger's fast path); other cells are
    formatted and parsed one by one.
    """
    array = np.asarray(array, dtype=float)
    values, decimals = [], []
    for block in _blocks(array.ravel()):
        dec = _decimal(block)
        m = dec.exponent - 11
        exact = dec.fast & (np.abs(m) <= _EXACT_POW10)
        q = _scale(dec.k, np.where(exact, m, 0))
        pinned = np.where(dec.negative, -q, q).tolist()
        for k in np.flatnonzero(~exact).tolist():
            pinned[k] = float(_token(float(block[k])))
        values += pinned
        decimals.append(dec)
    return _Cells("float", values, array.shape, decimals)


def _tokens(cells: _Cells) -> list:
    """The CSV token of each cell."""
    if cells.kind == "str":
        return cells.values
    if cells.kind == "int":
        return list(map(str, map(int, cells.values)))
    decimals = cells.decimals
    if decimals is None:
        decimals = list(map(_decimal, _blocks(np.array(cells.values, dtype=float))))
    return _printed(cells.values, decimals, _sci_block, _token)


def _cells_of(values) -> _Cells:
    """Cells of an artifact not made by a builder (a parser's, a test's)."""
    values = list(values)
    kinds = set(map(type, values))
    if kinds <= {str}:
        return _Cells("str", values)
    if all(issubclass(k, (int, np.integer)) for k in kinds):
        return _Cells("int", values)
    return _Cells("float", values)


@dataclass(frozen=True)
class GridArtifact:
    """A 2-D sweep result plus provenance, in serialization-ready form.

    columns maps a column name to a row-major tuple-of-tuples grid; cell
    values are strings or floats already pinned to emission precision.
    """

    kind: str
    row_name: str
    row_values: tuple
    col_name: str
    col_values: tuple
    columns: dict
    provenance: dict
    # (rows, cols, {name: cells}) as the builders formatted them
    _cells: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for key in ("config_hash", "version", "seed"):
            if key not in self.provenance:
                raise ValidationError(f"provenance block is missing {key!r}")
        shape = (len(self.row_values), len(self.col_values))
        for name, grid in self.columns.items():
            got = (len(grid), len(grid[0]) if grid else 0)
            if got != shape:
                raise ValidationError(f"column {name!r} has shape {got}, expected {shape}")


def _flat(artifact: GridArtifact) -> tuple:
    """(rows, cols, {name: cells}) of an artifact, in column order."""
    if artifact._cells is not None:
        return artifact._cells
    return (_cells_of(artifact.row_values), _cells_of(artifact.col_values),
            {name: _cells_of(chain.from_iterable(grid))
             for name, grid in artifact.columns.items()})


def _artifact(kind: str, row_name: str, rows: _Cells, col_name: str, cols: _Cells,
              columns: dict, provenance: dict) -> GridArtifact:
    return GridArtifact(
        kind=kind, row_name=row_name, row_values=tuple(rows.values),
        col_name=col_name, col_values=tuple(cols.values),
        columns={name: cells.nested() for name, cells in columns.items()},
        provenance=provenance, _cells=(rows, cols, columns),
    )


def make_provenance(config_hash: str, seed: int) -> dict:
    return {"config_hash": config_hash, "version": __version__, "seed": int(seed)}


def phase_artifact(grid: RegimeGrid, provenance: dict) -> GridArtifact:
    shots = list(map(int, grid.shot_values))
    labels = list(map(str, np.ravel(grid.label).tolist()))
    return _artifact(
        "phase-diagram", "p", _pinned(grid.p_values),
        "n_shots", _Cells("int", shots),
        {"pec_success": _pinned(grid.pec_success),
         "raw_success": _pinned(grid.raw_success),
         "label": _Cells("str", labels, np.shape(grid.label))},
        provenance,
    )


def centering_artifact(shift_axis, width_axis, true_grid, proxy_grid, error_grid,
                       provenance: dict) -> GridArtifact:
    return _artifact(
        "centering", "rel_shift", _pinned(shift_axis), "rel_width", _pinned(width_axis),
        {"true_success": _pinned(true_grid),
         "proxy_success": _pinned(proxy_grid),
         "relative_error": _pinned(error_grid)},
        provenance,
    )


# --- CSV ---------------------------------------------------------------

def grid_to_csv(artifact: GridArtifact) -> str:
    rows, cols, columns = _flat(artifact)
    lines = [f"# kind={artifact.kind}"]
    for key in sorted(artifact.provenance):
        lines.append(f"# {key}={artifact.provenance[key]}")
    names = list(artifact.columns)
    lines.append(",".join([artifact.row_name, artifact.col_name] + names))
    row_tokens, col_tokens = _tokens(rows), _tokens(cols)
    cells = zip(chain.from_iterable(repeat(t, len(col_tokens)) for t in row_tokens),
                col_tokens * len(row_tokens), *(_tokens(columns[name]) for name in names))
    return "\n".join(chain(lines, map(",".join, cells))) + "\n"


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
        meta["seed"] = int(meta["seed"])
    row_name, col_name, *names = header
    row_cells, col_cells, *cells = _parse_columns(rows, len(header))
    row_values, col_values = tuple(dict.fromkeys(row_cells)), tuple(dict.fromkeys(col_cells))
    height, width = len(row_values), len(col_values)
    if height * width != len(rows):
        raise ValidationError("CSV grid is ragged or out of order")
    columns = {name: tuple(tuple(values[i * width:(i + 1) * width]) for i in range(height))
               for name, values in zip(names, cells)}
    return GridArtifact(kind=kind, row_name=row_name, row_values=row_values,
                        col_name=col_name, col_values=col_values,
                        columns=columns, provenance=meta)


# --- JSON --------------------------------------------------------------

def _json_tokens(cells: _Cells) -> list:
    """What json.dumps writes for each cell."""
    if cells.kind == "float":
        if cells.decimals is None:  # values need not be pinned: repr each
            reprs = list(map(float.__repr__, cells.values))
            return list(map(_JSON_NONFINITE.get, reprs, reprs))
        return _printed(cells.values, cells.decimals, _repr_block, _json_float)
    if cells.kind == "int":
        return _tokens(cells)
    quoted = {s: json.dumps(s) for s in set(cells.values)}
    return list(map(quoted.__getitem__, cells.values))


def _json_block(items, depth: int, brackets: str = "[]") -> str:
    """A container of rendered items as json.dumps(indent=2) lays it out at depth."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _json_member(key: str, rendered: str) -> str:
    return f"{json.dumps(key)}: {rendered}"


def grid_to_json(artifact: GridArtifact) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) of the artifact, written by hand."""
    rows, cols, columns = _flat(artifact)
    width = len(cols.values)

    def axis(name: str, cells: _Cells) -> str:
        return _json_block([_json_member("name", json.dumps(name)),
                            _json_member("values", _json_block(_json_tokens(cells), 3))],
                           2, "{}")

    def grid(cells: _Cells) -> str:
        tokens = _json_tokens(cells)
        return _json_block([_json_block(tokens[i * width:(i + 1) * width], 3)
                            for i in range(len(rows.values))], 2)

    provenance = json.dumps(artifact.provenance, sort_keys=True, indent=2)
    doc = _json_block([
        _json_member("axes", _json_block([
            _json_member("col", axis(artifact.col_name, cols)),
            _json_member("row", axis(artifact.row_name, rows))], 1, "{}")),
        _json_member("columns", _json_block(
            [_json_member(name, grid(columns[name])) for name in sorted(columns)], 1, "{}")),
        _json_member("kind", json.dumps(artifact.kind)),
        _json_member("provenance", provenance.replace("\n", "\n  ")),
    ], 0, "{}")
    return doc + "\n"


def parse_grid_json(text: str) -> GridArtifact:
    doc = json.loads(text)
    return GridArtifact(
        kind=doc["kind"],
        row_name=doc["axes"]["row"]["name"],
        row_values=tuple(doc["axes"]["row"]["values"]),
        col_name=doc["axes"]["col"]["name"],
        col_values=tuple(doc["axes"]["col"]["values"]),
        columns={name: tuple(tuple(row) for row in grid)
                 for name, grid in doc["columns"].items()},
        provenance=doc["provenance"],
    )


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# --- SVG ---------------------------------------------------------------

def _ramp_colors(values) -> list:
    """COLOR_RAMP hex colors of float cells; non-finite cells get _NO_COLOR."""
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    v = np.clip(np.where(finite, v, 0.0), 0.0, 1.0)
    seg = np.searchsorted(_RAMP_STOPS[1:], v)  # the first upper stop >= v
    lo, hi = _RAMP_STOPS[seg], _RAMP_STOPS[seg + 1]
    f = (v - lo) / (hi - lo)
    c0, c1 = _RAMP_RGB[:, seg], _RAMP_RGB[:, seg + 1]
    rgb = np.rint(c0 + f * (c1 - c0)).astype(np.uint8)
    rgb[:, ~finite] = _NO_RGB[:, None]
    chars = np.empty((8, v.size), dtype=np.uint8)  # "#rrggbb" and a separator
    chars[0] = ord("#")
    chars[1:7:2] = _HEX_DIGITS[rgb >> 4]
    chars[2:7:2] = _HEX_DIGITS[rgb & 15]
    return _join(chars)


def _colors(name: str, cells: _Cells) -> list:
    if name == "label":
        return list(map(REGIME_COLORS.get, map(str, cells.values), repeat(_NO_COLOR)))
    return _ramp_colors(cells.values)


def grid_to_svg(artifact: GridArtifact, cell: int = 8) -> str:
    """One panel per column, drawn as a grid of colored rects.

    Deterministic: depends only on the artifact contents; the provenance
    block is embedded as a <metadata> element.
    """
    rows, cols, columns = _flat(artifact)
    row_tokens, col_tokens = _tokens(rows), _tokens(cols)
    names = list(artifact.columns)
    n_rows = len(artifact.row_values)
    n_cols = len(artifact.col_values)
    margin, gap, title_h = 40, 30, 18
    panel_w = n_cols * cell
    panel_h = n_rows * cell
    width = margin * 2 + len(names) * panel_w + (len(names) - 1) * gap
    height = margin * 2 + panel_h + title_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        "<metadata>"
        + " ".join(f"{k}={artifact.provenance[k]}" for k in sorted(artifact.provenance))
        + f" kind={artifact.kind}</metadata>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    y0 = margin + title_h
    # row 0 at the bottom so both axes increase up/right
    middles = [f'{y0 + (n_rows - 1 - i) * cell}" width="{cell}" height="{cell}" fill="'
               for i in range(n_rows)]
    for k, name in enumerate(names):
        x0 = margin + k * (panel_w + gap)
        parts.append(
            f'<text x="{x0}" y="{margin + 12}" font-family="monospace" '
            f'font-size="12">{name}</text>')
        prefixes = [f'<rect x="{x0 + j * cell}" y="' for j in range(n_cols)]
        colors = _colors(name, columns[name])
        for i, middle in enumerate(middles):
            parts += map("".join, zip(prefixes, repeat(middle),
                                      colors[i * n_cols:(i + 1) * n_cols], repeat('"/>')))
        parts.append(
            f'<text x="{x0}" y="{y0 + panel_h + 14}" font-family="monospace" '
            f'font-size="10">{artifact.col_name}: {col_tokens[0]}'
            f' .. {col_tokens[-1]}</text>')
    parts.append(
        f'<text x="{margin}" y="{height - 8}" font-family="monospace" '
        f'font-size="10">{artifact.row_name}: {row_tokens[0]} .. '
        f'{row_tokens[-1]} (bottom to top)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
