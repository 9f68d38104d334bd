"""Artifact emission: CSV / JSON grids and static SVG heatmaps.

Every grid artifact carries a provenance block (config hash, package
version, seed) and round-trips through its serialized form: numeric cells
are pinned to 12 significant digits at artifact-construction time, so
parse(emit(x)) == x and re-emission is byte-identical.

Emission is array-first: each cell is pinned, formatted and colored once.
An artifact builder formats every numeric cell to ``.11e`` in one pass and
parses those strings in one more to get the pinned floats.  The strings are
kept as the CSV tokens: for a normal float or zero the 12-digit string of
the pinned value is the string it was parsed from.  A subnormal carries
fewer significant bits, so its pinned value can print differently
(1.000000000003e-312 formats as 1.00000000000e-312 and pins to a value
that prints as 9.99999999998e-313); subnormal cells are formatted again.
Non-finite cells format as nan / inf / -inf.
JSON grid bodies are written from the pinned floats' repr in json.dumps's
indent-2 layout; json.dumps itself writes only the names and provenance.
SVG cells are colored by one numpy pass over a fixed ramp: each value is
clipped to [0, 1], takes the first ramp segment whose upper stop it does
not exceed, and each channel is rounded with np.rint, half to even like
the builtin round.  Non-finite cells are grey.  SVG output is a pure
function of the artifact — no timestamps — with the provenance embedded
as metadata text.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from itertools import chain, repeat

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
_RAMP_RGB = np.array([rgb for _, rgb in COLOR_RAMP], dtype=float)
_HEX = np.array([f"{k:02x}" for k in range(256)], dtype=object)
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class _Cells:
    """One column or axis, flat and row-major, with one CSV token per cell.

    kind is "float" (pinned), "int" or "str"; shape is the input's shape.
    """

    kind: str
    values: list
    tokens: list
    shape: tuple = ()

    def nested(self) -> tuple:
        rows, width = self.shape
        return tuple(tuple(self.values[i * width:(i + 1) * width]) for i in range(rows))


def _pinned(array) -> _Cells:
    """Pin cells to 12 significant digits: one format and one parse per cell."""
    array = np.asarray(array, dtype=float)
    tokens = list(map(_token, array.ravel().tolist()))
    values = list(map(float, tokens))
    size = np.abs(np.array(values))
    for k in np.flatnonzero((size > 0.0) & (size < sys.float_info.min)).tolist():
        tokens[k] = _token(values[k])  # a pinned subnormal can print differently
    return _Cells("float", values, tokens, array.shape)


def _cells_of(values) -> _Cells:
    """Cells of an artifact not made by a builder (a parser's, a test's)."""
    values = list(values)
    kinds = set(map(type, values))
    if kinds <= {str}:
        return _Cells("str", values, values)
    if all(issubclass(k, (int, np.integer)) for k in kinds):
        return _Cells("int", values, list(map(str, map(int, values))))
    return _Cells("float", values, list(map(_token, values)))


def _parse_token(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


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
        "n_shots", _Cells("int", shots, list(map(str, shots))),
        {"pec_success": _pinned(grid.pec_success),
         "raw_success": _pinned(grid.raw_success),
         "label": _Cells("str", labels, labels, np.shape(grid.label))},
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
    row_tokens = chain.from_iterable(repeat(t, len(cols.tokens)) for t in rows.tokens)
    cells = zip(row_tokens, cols.tokens * len(rows.tokens),
                *(columns[name].tokens for name in names))
    return "\n".join(chain(lines, map(",".join, cells))) + "\n"


def parse_grid_csv(text: str) -> GridArtifact:
    meta = {}
    header = None
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([_parse_token(tok) for tok in line.split(",")])
    if header is None or not rows:
        raise ValidationError("CSV grid has no data rows")
    kind = meta.pop("kind", "grid")
    if "seed" in meta:
        meta["seed"] = int(meta["seed"])
    row_name, col_name, *names = header
    row_values, col_values = [], []
    for row in rows:
        if row[0] not in row_values:
            row_values.append(row[0])
        if row[1] not in col_values:
            col_values.append(row[1])
    shape = (len(row_values), len(col_values))
    if shape[0] * shape[1] != len(rows):
        raise ValidationError("CSV grid is ragged or out of order")
    columns = {}
    for k, name in enumerate(names):
        grid = [[row[2 + k] for row in rows[i * shape[1]:(i + 1) * shape[1]]]
                for i in range(shape[0])]
        columns[name] = tuple(tuple(r) for r in grid)
    return GridArtifact(kind=kind, row_name=row_name, row_values=tuple(row_values),
                        col_name=col_name, col_values=tuple(col_values),
                        columns=columns, provenance=meta)


# --- JSON --------------------------------------------------------------

def _json_tokens(cells: _Cells) -> list:
    """What json.dumps writes for each cell."""
    if cells.kind == "float":
        reprs = list(map(float.__repr__, cells.values))
        return list(map(_JSON_NONFINITE.get, reprs, reprs))
    if cells.kind == "int":
        return cells.tokens
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
    f = ((v - lo) / (hi - lo))[:, None]
    c0, c1 = _RAMP_RGB[seg], _RAMP_RGB[seg + 1]
    rgb = np.rint(c0 + f * (c1 - c0)).astype(np.intp)
    colors = "#" + _HEX[rgb[:, 0]] + _HEX[rgb[:, 1]] + _HEX[rgb[:, 2]]
    colors[~finite] = _NO_COLOR
    return colors.tolist()


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
            f'font-size="10">{artifact.col_name}: {cols.tokens[0]}'
            f' .. {cols.tokens[-1]}</text>')
    parts.append(
        f'<text x="{margin}" y="{height - 8}" font-family="monospace" '
        f'font-size="10">{artifact.row_name}: {rows.tokens[0]} .. '
        f'{rows.tokens[-1]} (bottom to top)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
