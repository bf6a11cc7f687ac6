"""Raster file formats and heatmap rendering.

Two text formats are supported, both whitespace-tolerant and line-ending
agnostic, with numbers serialized in shortest round-trip decimal form so a
write/parse cycle is bit-exact:

* ESRI ASCII grid for square rasters (``ncols/nrows/xllcorner|xllcenter/
  yllcorner|yllcenter/cellsize/NODATA_value`` header, then nrows lines of
  ncols values, top row first).  An ``xllcenter`` header is converted to the
  corner convention on read.
* A hexagonal raster format of the same flavor: six header lines
  ``ncols, nrows, xcenter0, ycenter0, radius, NODATA_value`` followed by
  nrows lines of ncols values.  ``(xcenter0, ycenter0)`` is the center of
  the upper-left cell; odd rows (0-based) are implicitly offset half a cell
  width to the left, so no per-cell coordinates are stored.

Rendering emits SVG 1.1 or binary PPM (P6) with one filled polygon per
cell, a linear color map, and a configurable gap color for NODATA cells.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CountMismatchError,
    DegenerateRangeWarning,
    MalformedHeaderError,
    NonNumericTokenError,
)
from .hexgrid import HexGrid, hex_vertices, locate_many

DEFAULT_NODATA = -9999.0


def _validate_values(values, nodata, what):
    if not np.isfinite(nodata):
        raise ValueError(f"{what}: nodata sentinel must be finite")
    bad = ~(np.isfinite(values) | (values == nodata))
    if bad.any():
        raise ValueError(f"{what}: values must be finite or equal the nodata sentinel")


@dataclass(eq=False)
class RectRaster:
    """A square-cell raster: (nrows, ncols) values, top row first.

    ``(xll, yll)`` is the lower-left corner of the lower-left cell and
    ``cellsize`` the cell side, so cell (row, col) is centered at
    ``(xll + (col + 1/2) * cellsize, yll + (nrows - row - 1/2) * cellsize)``.
    """

    values: np.ndarray
    xll: float
    yll: float
    cellsize: float
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError("values must be a nonempty 2D array")
        if not np.isfinite([self.xll, self.yll, self.cellsize]).all():
            raise ValueError("RectRaster: xll, yll and cellsize must be finite")
        if not self.cellsize > 0:
            raise ValueError("cellsize must be positive")
        _validate_values(self.values, self.nodata, "RectRaster")

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    @property
    def bounds(self):
        """(xmin, ymin, xmax, ymax) of the cell union."""
        return (
            self.xll,
            self.yll,
            self.xll + self.ncols * self.cellsize,
            self.yll + self.nrows * self.cellsize,
        )

    def x_centers(self) -> np.ndarray:
        return self.xll + (np.arange(self.ncols) + 0.5) * self.cellsize

    def y_center(self, row: int) -> float:
        return self.yll + (self.nrows - row - 0.5) * self.cellsize

    def __eq__(self, other):
        if not isinstance(other, RectRaster):
            return NotImplemented
        return (
            self.xll == other.xll
            and self.yll == other.yll
            and self.cellsize == other.cellsize
            and self.nodata == other.nodata
            and self.values.shape == other.values.shape
            and np.array_equal(self.values, other.values)
        )


@dataclass(eq=False)
class HexRaster:
    """A hexagonal raster: (nrows, ncols) values on a pointy-top tessellation.

    ``(x0, y0)`` is the center of the upper-left cell, ``r`` the circumradius
    (equal to the hexagon side).  Cell (row, col) is centered at
    ``(x0 + col*r*sqrt(3) - (row % 2)*r*sqrt(3)/2, y0 - 1.5*r*row)``.
    """

    values: np.ndarray
    x0: float
    y0: float
    r: float
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError("values must be a nonempty 2D array")
        if not np.isfinite([self.x0, self.y0, self.r]).all():
            raise ValueError("HexRaster: x0, y0 and radius must be finite")
        if not self.r > 0:
            raise ValueError("radius must be positive")
        _validate_values(self.values, self.nodata, "HexRaster")

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def to_grid(self) -> HexGrid:
        return HexGrid(
            ncols=self.ncols, nrows=self.nrows, r=self.r, x0=self.x0, y0=self.y0
        )

    def __eq__(self, other):
        if not isinstance(other, HexRaster):
            return NotImplemented
        return (
            self.x0 == other.x0
            and self.y0 == other.y0
            and self.r == other.r
            and self.nodata == other.nodata
            and self.values.shape == other.values.shape
            and np.array_equal(self.values, other.values)
        )


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def _decode(data) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _parse_grid_text(text, keys_required, keys_optional, what):
    """Shared header+body tokenizer for both raster formats."""
    lines = _decode(text).splitlines()
    known = set(keys_required) | set(keys_optional)
    header = {}
    body_start = 0
    for lineno, line in enumerate(lines):
        tokens = line.split()
        if not tokens:
            body_start = lineno + 1
            continue
        key = tokens[0].lower()
        if key in known:
            if len(tokens) != 2:
                raise MalformedHeaderError(
                    f"{what}: header line {lineno + 1} needs exactly one value"
                )
            if key in header:
                raise MalformedHeaderError(f"{what}: duplicate header key {key}")
            try:
                header[key] = float(tokens[1])
            except ValueError:
                raise NonNumericTokenError(
                    f"{what}: bad number {tokens[1]!r} for header key {key}"
                ) from None
            body_start = lineno + 1
        else:
            break
    tokens = " ".join(lines[body_start:]).split()
    return header, tokens


def _parse_body(tokens, nrows, ncols, what):
    if len(tokens) != nrows * ncols:
        raise CountMismatchError(
            f"{what}: expected {nrows * ncols} values, found {len(tokens)}"
        )
    try:
        flat = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError:
        bad = next(t for t in tokens if not _is_number(t))
        raise NonNumericTokenError(f"{what}: bad value token {bad!r}") from None
    return flat.reshape(nrows, ncols)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _finite_header(header, keys, what):
    """Reject non-finite geometry: it would only fail later, or pass through."""
    for key in keys:
        if key in header and not np.isfinite(header[key]):
            raise MalformedHeaderError(f"{what}: {key} must be finite")


def _int_header(header, key, what):
    v = header[key]
    if v != int(v) or int(v) < 1:
        raise MalformedHeaderError(f"{what}: {key} must be a positive integer")
    return int(v)


def parse_esri_ascii(data) -> RectRaster:
    """Parse an ESRI ASCII grid from bytes or text."""
    header, tokens = _parse_grid_text(
        data,
        keys_required=("ncols", "nrows", "cellsize"),
        keys_optional=("xllcorner", "xllcenter", "yllcorner", "yllcenter", "nodata_value"),
        what="esri ascii",
    )
    for key in ("ncols", "nrows", "cellsize"):
        if key not in header:
            raise MalformedHeaderError(f"esri ascii: missing header key {key}")
    for axis in ("x", "y"):
        corner = f"{axis}llcorner" in header
        center = f"{axis}llcenter" in header
        if corner and center:
            raise MalformedHeaderError(f"esri ascii: both {axis}llcorner and {axis}llcenter")
        if not corner and not center:
            raise MalformedHeaderError(f"esri ascii: missing {axis}llcorner/{axis}llcenter")
    _finite_header(header, ("ncols", "nrows", "xllcorner", "yllcorner", "xllcenter",
                            "yllcenter", "cellsize"), "esri ascii")
    ncols = _int_header(header, "ncols", "esri ascii")
    nrows = _int_header(header, "nrows", "esri ascii")
    cellsize = header["cellsize"]
    if not cellsize > 0:
        raise MalformedHeaderError("esri ascii: cellsize must be positive")
    xll = header.get("xllcorner", header.get("xllcenter", 0.0) - cellsize / 2.0)
    yll = header.get("yllcorner", header.get("yllcenter", 0.0) - cellsize / 2.0)
    nodata = header.get("nodata_value", DEFAULT_NODATA)
    values = _parse_body(tokens, nrows, ncols, "esri ascii")
    return RectRaster(values=values, xll=xll, yll=yll, cellsize=cellsize, nodata=nodata)


def write_esri_ascii(raster: RectRaster) -> str:
    """Serialize a raster so that parsing the result reproduces it exactly."""
    out = [
        f"ncols {raster.ncols}",
        f"nrows {raster.nrows}",
        f"xllcorner {_fmt(raster.xll)}",
        f"yllcorner {_fmt(raster.yll)}",
        f"cellsize {_fmt(raster.cellsize)}",
        f"NODATA_value {_fmt(raster.nodata)}",
    ]
    out.extend(" ".join(map(repr, row.tolist())) for row in raster.values)
    return "\n".join(out) + "\n"


def read_hex_raster(data) -> HexRaster:
    """Parse the hexagonal raster text format."""
    header, tokens = _parse_grid_text(
        data,
        keys_required=("ncols", "nrows", "xcenter0", "ycenter0", "radius", "nodata_value"),
        keys_optional=(),
        what="hex raster",
    )
    for key in ("ncols", "nrows", "xcenter0", "ycenter0", "radius", "nodata_value"):
        if key not in header:
            raise MalformedHeaderError(f"hex raster: missing header key {key}")
    _finite_header(header, ("ncols", "nrows", "xcenter0", "ycenter0", "radius"), "hex raster")
    ncols = _int_header(header, "ncols", "hex raster")
    nrows = _int_header(header, "nrows", "hex raster")
    if not header["radius"] > 0:
        raise MalformedHeaderError("hex raster: radius must be positive")
    values = _parse_body(tokens, nrows, ncols, "hex raster")
    return HexRaster(
        values=values,
        x0=header["xcenter0"],
        y0=header["ycenter0"],
        r=header["radius"],
        nodata=header["nodata_value"],
    )


def write_hex_raster(raster: HexRaster) -> str:
    out = [
        f"ncols {raster.ncols}",
        f"nrows {raster.nrows}",
        f"xcenter0 {_fmt(raster.x0)}",
        f"ycenter0 {_fmt(raster.y0)}",
        f"radius {_fmt(raster.r)}",
        f"NODATA_value {_fmt(raster.nodata)}",
    ]
    out.extend(" ".join(map(repr, row.tolist())) for row in raster.values)
    return "\n".join(out) + "\n"


PALETTES = {
    "gray": [(0, 0, 0), (255, 255, 255)],
    "viridis": [
        (68, 1, 84),
        (59, 82, 139),
        (33, 145, 140),
        (94, 201, 98),
        (253, 231, 37),
    ],
    "terrain": [
        (0, 97, 71),
        (144, 191, 90),
        (230, 220, 120),
        (160, 110, 70),
        (245, 245, 245),
    ],
}

GAP_COLOR = (200, 200, 200)


def _colorize(values, nodata, palette, value_range):
    """Map values to RGB uint8. NODATA cells get the gap color."""
    stops = PALETTES[palette] if isinstance(palette, str) else list(palette)
    flat = np.asarray(values, dtype=np.float64).ravel()
    valid = flat != nodata
    if value_range is not None:
        vmin, vmax = float(value_range[0]), float(value_range[1])
    else:
        if not valid.any():
            vmin, vmax = 0.0, 1.0
        else:
            vmin = flat[valid].min()
            vmax = flat[valid].max()
        if vmin == vmax:
            warnings.warn(
                "all values equal and no explicit range: rendering a single color",
                DegenerateRangeWarning,
                stacklevel=3,
            )
            vmin, vmax = vmin - 0.5, vmax + 0.5
    t = np.clip((flat - vmin) / (vmax - vmin), 0.0, 1.0)
    stops_arr = np.asarray(stops, dtype=np.float64)
    pos = t * (len(stops) - 1)
    i0 = np.clip(pos.astype(int), 0, len(stops) - 2)
    frac = pos - i0
    rgb = stops_arr[i0] * (1.0 - frac[:, None]) + stops_arr[i0 + 1] * frac[:, None]
    rgb = np.clip(np.rint(rgb), 0, 255).astype(np.uint8)
    rgb[~valid] = np.array(GAP_COLOR, dtype=np.uint8)
    return rgb


def _svg_header(xmin, ymin, xmax, ymax, scale):
    w = (xmax - xmin) * scale
    h = (ymax - ymin) * scale
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w:.2f}" height="{h:.2f}" '
        f'viewBox="0 0 {w:.6f} {h:.6f}">\n'
    )


def render(raster, fmt: str, palette="viridis", value_range=None, px_per_cell=8) -> bytes:
    """Render a raster as an SVG or binary PPM heatmap.

    ``px_per_cell`` sets the pixel block size (PPM) or the on-screen cell
    size (SVG).  When all values are equal and no ``value_range`` is given a
    single color is rendered and a :class:`DegenerateRangeWarning` issued.
    """
    if fmt not in ("svg", "ppm"):
        raise ValueError(f"unknown render format {fmt!r}")
    colors = _colorize(raster.values, raster.nodata, palette, value_range)
    if isinstance(raster, RectRaster):
        if fmt == "svg":
            return _rect_svg(raster, colors, px_per_cell)
        return _rect_ppm(raster, colors, px_per_cell)
    if isinstance(raster, HexRaster):
        if fmt == "svg":
            return _hex_svg(raster, colors, px_per_cell)
        return _hex_ppm(raster, colors, px_per_cell)
    raise TypeError(f"cannot render {type(raster).__name__}")


def _rect_svg(raster: RectRaster, colors, px_per_cell) -> bytes:
    scale = px_per_cell / raster.cellsize
    xmin, ymin, xmax, ymax = raster.bounds
    parts = [_svg_header(xmin, ymin, xmax, ymax, scale)]
    cs = raster.cellsize * scale
    for row in range(raster.nrows):
        y = row * cs
        for col in range(raster.ncols):
            r, g, b = colors[row * raster.ncols + col]
            parts.append(
                f'<rect x="{col * cs:.4f}" y="{y:.4f}" width="{cs:.4f}" '
                f'height="{cs:.4f}" fill="#{r:02x}{g:02x}{b:02x}"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts).encode("utf-8")


def _rect_ppm(raster: RectRaster, colors, px_per_cell) -> bytes:
    img = colors.reshape(raster.nrows, raster.ncols, 3)
    img = np.repeat(np.repeat(img, px_per_cell, axis=0), px_per_cell, axis=1)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + img.tobytes()


def _hex_bbox(raster: HexRaster):
    grid = raster.to_grid()
    w = grid.cell_width
    xmin = grid.x0 - w / 2.0 - (w / 2.0 if grid.nrows > 1 else 0.0)
    xmax = grid.x0 + (grid.ncols - 1) * w + w / 2.0
    ymax = grid.y0 + grid.r
    ymin = grid.y0 - 1.5 * grid.r * (grid.nrows - 1) - grid.r
    return xmin, ymin, xmax, ymax


def _hex_svg(raster: HexRaster, colors, px_per_cell) -> bytes:
    grid = raster.to_grid()
    scale = px_per_cell / grid.cell_width
    xmin, ymin, xmax, ymax = _hex_bbox(raster)
    parts = [_svg_header(xmin, ymin, xmax, ymax, scale)]
    for row in range(raster.nrows):
        for col in range(raster.ncols):
            cx, cy = grid.cell_center(col, row)
            verts = hex_vertices(cx, cy, grid.r)
            pts = " ".join(
                f"{(vx - xmin) * scale:.4f},{(ymax - vy) * scale:.4f}"
                for vx, vy in verts
            )
            r, g, b = colors[row * raster.ncols + col]
            parts.append(f'<polygon points="{pts}" fill="#{r:02x}{g:02x}{b:02x}"/>\n')
    parts.append("</svg>\n")
    return "".join(parts).encode("utf-8")


def _hex_ppm(raster: HexRaster, colors, px_per_cell) -> bytes:
    grid = raster.to_grid()
    xmin, ymin, xmax, ymax = _hex_bbox(raster)
    px = grid.cell_width / px_per_cell
    width = max(1, int(np.ceil((xmax - xmin) / px)))
    height = max(1, int(np.ceil((ymax - ymin) / px)))
    xs = xmin + (np.arange(width) + 0.5) * px
    ys = ymax - (np.arange(height) + 0.5) * px
    X, Y = np.meshgrid(xs, ys)
    cols, rows, inside = locate_many(grid, X.ravel(), Y.ravel())
    img = np.full((width * height, 3), GAP_COLOR, dtype=np.uint8)
    flat_idx = rows[inside] * raster.ncols + cols[inside]
    img[inside] = colors[flat_idx]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + img.reshape(height, width, 3).tobytes()
