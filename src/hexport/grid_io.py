"""Raster file formats and heatmap rendering.

Both raster kinds share one model: ``values`` (nrows, ncols, top row first),
three geometry numbers (a position and a positive cell size) and a finite
``nodata`` sentinel, validated and compared by one base class.  Both text
formats share one header reader and one writer.  A header is a run of
``key value`` lines, keys case-insensitive and in any order, followed by
nrows lines of ncols values; the formats are whitespace-tolerant and
line-ending agnostic, with numbers serialized in shortest round-trip decimal
form so a write/parse cycle is bit-exact:

* ESRI ASCII grid for square rasters (``ncols/nrows/xllcorner|xllcenter/
  yllcorner|yllcenter/cellsize/NODATA_value`` header).  An ``xllcenter``
  header is converted to the corner convention on read.
* A hexagonal raster format of the same flavor, with the six header keys
  ``ncols, nrows, xcenter0, ycenter0, radius, NODATA_value``.
  ``(xcenter0, ycenter0)`` is the center of the upper-left cell; odd rows
  (0-based) are implicitly offset half a cell width to the left, so no
  per-cell coordinates are stored.

:func:`read_raster` reads either format, chosen by its header keys.
Rendering emits SVG 1.1 or binary PPM (P6) with one filled polygon per
cell, a linear color map, and a configurable gap color for NODATA cells.

Memory: the readers take bytes, text or an open text file.  Beyond the
values array and its validity masks, a read from a file holds O(one row):
the file is read a line at a time, and a faulty body is counted to its end
the same way, to report a count mismatch before a bad token.  A read of
bytes or text also holds that text and its list of lines.  The writers
return the text, or write it row by row to an open text file ``out``, and
then hold O(one row).  A large read, or a large write to a file, on two
cores forks a helper process for the second half of the rows while the
caller does the first half.  A read's helper parses its lines into a
temporary file of float64 values, which the caller reads straight into the
values array; a write's helper formats its rows into a temporary file,
which the caller copies after its own a line at a time.  Either way the
caller still holds about one row, and the values, the error or the bytes
are those of the serial read or write.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import os
import signal
import stat
import tempfile
import threading
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

# Values from which a read or a write of a file forks a helper to parse or
# format the second half of the rows.  On fewer, the fork, the copy and the
# page faults the fork leaves for the caller's next work cost more than the
# second core saves; CHANGES.md has the measured curve.
_FORKED_VALUES = 200_000


class _Raster:
    """What both raster kinds share: validation, shape and equality.

    A subclass is a dataclass with fields ``values``, its three geometry
    fields and ``nodata``; ``_keys`` maps each geometry field, the positive
    cell size last, to its key in the text header.
    """

    _keys: dict

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError("values must be a nonempty 2D array")
        kind = type(self).__name__
        if not np.isfinite([getattr(self, name) for name in self._keys]).all():
            raise ValueError(f"{kind}: {', '.join(self._keys)} must be finite")
        size = list(self._keys)[-1]
        if not getattr(self, size) > 0:
            raise ValueError(f"{kind}: {size} must be positive")
        if not np.isfinite(self.nodata):
            raise ValueError(f"{kind}: nodata sentinel must be finite")
        ok = np.isfinite(self.values)
        ok |= self.values == self.nodata
        if not ok.all():
            raise ValueError(f"{kind}: values must be finite or equal the nodata sentinel")

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in (*self._keys, "nodata")
        ) and np.array_equal(self.values, other.values)


@dataclass(eq=False)
class RectRaster(_Raster):
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

    _keys = {"xll": "xllcorner", "yll": "yllcorner", "cellsize": "cellsize"}

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

    def y_center(self, row):
        return self.yll + (self.nrows - row - 0.5) * self.cellsize


@dataclass(eq=False)
class HexRaster(_Raster):
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

    _keys = {"x0": "xcenter0", "y0": "ycenter0", "r": "radius"}

    def to_grid(self) -> HexGrid:
        return HexGrid(
            ncols=self.ncols, nrows=self.nrows, r=self.r, x0=self.x0, y0=self.y0
        )


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


# Header keys per format: each group lists alternatives, exactly one of which
# must be present.
_ESRI_KEYS = (("ncols",), ("nrows",), ("cellsize",), ("xllcorner", "xllcenter"),
              ("yllcorner", "yllcenter"))
_HEX_KEYS = (("ncols",), ("nrows",), ("xcenter0",), ("ycenter0",), ("radius",),
             ("nodata_value",))
_ALL_KEYS = {key for group in _ESRI_KEYS + _HEX_KEYS for key in group}


def _lines(data):
    """An iterator over the lines of bytes, text or an open text file, and
    the file (None for bytes or text).

    A file is read a line at a time, and each line it yields is cut again by
    ``str.splitlines``, so the lines are those of the whole text.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        return iter(data.splitlines()), None
    return itertools.chain.from_iterable(map(str.splitlines, data)), data


def _split_header(lines, known):
    """The leading ``lines`` that are blank or start with a known key, and an
    iterator over the rest."""
    lines = iter(lines)
    head = []
    for line in lines:
        tokens = line.split()
        if tokens and tokens[0].lower() not in known:
            return head, itertools.chain([line], lines)
        head.append(line)
    return head, lines


def _read_text(lines, file, what, required, size):
    """Both formats' reader: the checked header and the (nrows, ncols) values.

    ``lines`` is an iterator over the text's lines, read from ``file`` (None
    for bytes or text).  The header may hold
    ``nodata_value`` and must hold one key of each ``required`` group; every
    key but ``nodata_value`` must be finite, ``ncols`` and ``nrows`` positive
    integers and ``size`` positive.
    """
    known = {key for group in required for key in group} | {"nodata_value"}
    header = {}
    head, body = _split_header(lines, known)
    for lineno, line in enumerate(head):
        tokens = line.split()
        if not tokens:
            continue
        key = tokens[0].lower()
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
    for group in required:
        present = [key for key in group if key in header]
        if not present:
            raise MalformedHeaderError(f"{what}: missing header key {'/'.join(group)}")
        if len(present) > 1:
            raise MalformedHeaderError(f"{what}: both {' and '.join(present)}")
    # Non-finite geometry would only fail later, or pass through.
    for key, value in header.items():
        if key != "nodata_value" and not np.isfinite(value):
            raise MalformedHeaderError(f"{what}: {key} must be finite")
    for key in ("ncols", "nrows"):
        v = header[key]
        if v != int(v) or int(v) < 1:
            raise MalformedHeaderError(f"{what}: {key} must be a positive integer")
        header[key] = int(v)
    if not header[size] > 0:
        raise MalformedHeaderError(f"{what}: {size} must be positive")
    return header, _parse_body(body, file, header["nrows"], header["ncols"], what)


def _parse_body(lines, file, nrows, ncols, what):
    """The (nrows, ncols) values of the body ``lines``, read one line at a time.

    From ``_FORKED_VALUES`` values on (see :func:`_forks`), a forked helper
    parses the lines after the first k = ceil(nrows / 2) while the caller
    parses those (:func:`_read_on`); the caller then reads the helper's
    values after its own, or parses the rest itself if the helper failed or
    the counts do not add up.  A faulty body, or a declared count too large
    to allocate, is then counted to its end, still a line at a time, to
    report the count before a bad token.  Every token before the line that
    stopped the parse was a number, so a bad token is looked for in that
    line only.
    """
    count = nrows * ncols
    try:
        flat = np.empty(count, np.float64)
        failure = None
    except (ValueError, MemoryError, OverflowError) as exc:
        flat, failure = np.empty(0), exc  # _fill stops at its first token
    k = nrows - nrows // 2
    work = _read_on(lines, file, k) if failure is None and _forks(count, nrows) else None
    with _helper(work) as join:
        filled, stopped = _fill(flat, 0, lines if join is None else itertools.islice(lines, k))
        if join is not None and stopped is None:
            spool = join()
            if spool is not None and _load(spool, flat[filled:]):
                if file is not None:
                    file.seek(0, io.SEEK_END)  # where the serial parse leaves it
                return flat.reshape(nrows, ncols)
            filled, stopped = _fill(flat, filled, lines)
    if stopped is None and filled == count:
        return flat.reshape(nrows, ncols)
    stopped = stopped or []
    found = filled + len(stopped) + sum(len(line.split()) for line in lines)
    if found != count:
        raise CountMismatchError(f"{what}: expected {count} values, found {found}")
    bad = next((t for t in stopped if not _is_number(t)), None)
    if bad is None:
        raise failure
    raise NonNumericTokenError(f"{what}: bad value token {bad!r}")


def _fill(flat, filled, lines):
    """Stores the numbers of ``lines`` in ``flat`` from index ``filled`` on,
    a line at a time.  Returns the index after the last number stored, and
    the tokens of the line that stopped it, one with a bad token or more
    tokens than fit, or None once ``lines`` run out."""
    for tokens in map(str.split, lines):
        end = filled + len(tokens)
        if end > len(flat):
            return filled, tokens
        try:
            flat[filled:end] = np.fromiter(map(float, tokens), np.float64, len(tokens))
        except ValueError:
            return filled, tokens
        filled = end
    return filled, None


def _read_on(lines, file, skip):
    """What a forked helper runs to parse ``lines`` after the first ``skip``
    into its spool as float64 values, or None where it cannot read on
    without moving the caller: in a file neither in memory nor on disk.

    The helper goes on with its copy of the caller's ``lines``, so it splits
    them as the caller does.  Bytes, text and an ``io.StringIO`` live in its
    own memory.  A regular file's descriptor shares its offset with the
    caller, so the helper first points that descriptor at a new open file
    description of the same file, at the offset the caller had at the fork.
    """
    fd = None
    if file is not None and not isinstance(file, io.StringIO):
        if not (isinstance(file, io.TextIOWrapper)
                and isinstance(getattr(file.buffer, "raw", None), io.FileIO)):
            return None
        fd = file.fileno()
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            return None
        at = os.lseek(fd, 0, os.SEEK_CUR)

    def read_on(spool):
        if fd is not None:
            own = os.open(f"/proc/self/fd/{fd}", os.O_RDONLY)
            os.lseek(own, at, os.SEEK_SET)
            os.dup2(own, fd)
            os.close(own)
        collections.deque(itertools.islice(lines, skip), maxlen=0)
        tokens = itertools.chain.from_iterable(map(str.split, lines))
        spool.write(np.fromiter(map(float, tokens), np.float64).tobytes())

    return read_on


def _load(spool, flat) -> bool:
    """Whether ``spool`` held exactly ``flat``'s count of float64 values,
    read into ``flat``."""
    size = flat.nbytes
    return (os.fstat(spool.fileno()).st_size == size
            and spool.readinto(memoryview(flat).cast("B")) == size)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _write_text(raster, out):
    """Both formats' writer: the header, then one line per row, top row first.

    Returns the text, or None once it is written to the open text file ``out``.
    """
    header = [f"ncols {raster.ncols}\n", f"nrows {raster.nrows}\n",
              *(f"{key} {_fmt(getattr(raster, name))}\n" for name, key in raster._keys.items()),
              f"NODATA_value {_fmt(raster.nodata)}\n"]
    values = raster.values
    if out is None:
        return "".join(itertools.chain(header, _rows(values)))
    # Past the first k rows, a forked helper may format the rest.
    k = len(values) - len(values) // 2
    work = None
    if _forks(values.size, len(values)):
        def work(spool):
            spool.writelines(line.encode() for line in _rows(values[k:]))
    with _helper(work) as join:
        out.writelines(header)
        out.writelines(_rows(values if join is None else values[:k]))
        if join is not None:
            spool = join()
            out.writelines(_rows(values[k:]) if spool is None else map(bytes.decode, spool))
    return None


def _rows(values):
    """The text lines of ``values``' rows."""
    return (" ".join(map(repr, row.tolist())) + "\n" for row in values)


def _two_cores() -> bool:
    """Whether this process may run on two cores: False where
    ``os.sched_getaffinity`` (Linux only) or ``os.fork`` is missing."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and hasattr(os, "fork") and len(affinity(0)) >= 2


def _forks(values: int, rows: int) -> bool:
    """Whether a read or write of ``values`` values in ``rows`` rows forks a
    helper for the second half of the rows: from ``_FORKED_VALUES`` values
    on, where the helper gets a row, on two cores, and with no thread but
    the caller's (a forked child has the calling thread only)."""
    return (values >= _FORKED_VALUES and rows >= 2 and threading.active_count() == 1
            and _two_cores())


@contextlib.contextmanager
def _helper(work):
    """Runs ``work(spool)`` in a forked helper process while the block runs.

    ``spool`` is an unlinked binary temporary file.  The block gets None if
    ``work`` is None or no temporary file or no process can be had, and then
    does all the work itself.  Otherwise it gets ``join``: ``join()`` reaps
    the helper and returns the spool at offset 0, or None if the helper
    exited non-zero.  A block that ends without joining, by raising or not,
    kills and reaps the helper first.
    """
    try:
        spool = None if work is None else tempfile.TemporaryFile()
    except OSError:
        spool = None
    if spool is None:
        yield None
        return
    with spool:
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns of any thread, numpy's native BLAS workers
                # too; the helper only parses, formats and writes, taking no
                # lock of theirs.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            pid = None
        if pid is None:
            yield None
            return
        if pid == 0:  # the helper: leaves through os._exit, whatever happens
            code = 1
            try:
                work(spool)
                spool.flush()
                code = 0
            finally:
                os._exit(code)
        status = None

        def join():
            nonlocal status
            _, status = os.waitpid(pid, 0)
            if status:
                return None
            spool.seek(0)
            return spool

        try:
            yield join
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def parse_esri_ascii(data) -> RectRaster:
    """Parse an ESRI ASCII grid from bytes, text or an open text file."""
    return _esri(*_lines(data))


def _esri(lines, file) -> RectRaster:
    header, values = _read_text(lines, file, "esri ascii", _ESRI_KEYS, "cellsize")
    cellsize = header["cellsize"]
    xll = header.get("xllcorner", header.get("xllcenter", 0.0) - cellsize / 2.0)
    yll = header.get("yllcorner", header.get("yllcenter", 0.0) - cellsize / 2.0)
    nodata = header.get("nodata_value", DEFAULT_NODATA)
    return RectRaster(values=values, xll=xll, yll=yll, cellsize=cellsize, nodata=nodata)


def write_esri_ascii(raster: RectRaster, out=None) -> str | None:
    """Serialize a raster so that parsing the result reproduces it exactly.

    Returns the text, or, given an open text file ``out``, writes it there
    row by row and returns None.
    """
    return _write_text(raster, out)


def read_hex_raster(data) -> HexRaster:
    """Parse the hexagonal raster text format from bytes, text or an open text file."""
    return _hex(*_lines(data))


def _hex(lines, file) -> HexRaster:
    header, values = _read_text(lines, file, "hex raster", _HEX_KEYS, "radius")
    geometry = {name: header[key] for name, key in HexRaster._keys.items()}
    return HexRaster(values=values, **geometry, nodata=header["nodata_value"])


def write_hex_raster(raster: HexRaster, out=None) -> str | None:
    """Serialize a hex raster; like :func:`write_esri_ascii`, to ``out`` if given."""
    return _write_text(raster, out)


def read_raster(data):
    """Parse either format; a ``xcenter0`` header key means the hexagonal one."""
    lines, file = _lines(data)
    head, rest = _split_header(lines, _ALL_KEYS)
    keys = {tokens[0].lower() for tokens in map(str.split, head) if tokens}
    return (_hex if "xcenter0" in keys else _esri)(itertools.chain(head, rest), file)


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


def _svg(bounds, scale, cells) -> bytes:
    """An SVG document of the ``bounds`` box at ``scale`` holding the ``cells`` elements."""
    xmin, ymin, xmax, ymax = bounds
    w = (xmax - xmin) * scale
    h = (ymax - ymin) * scale
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w:.2f}" height="{h:.2f}" '
        f'viewBox="0 0 {w:.6f} {h:.6f}">\n' + "".join(cells) + "</svg>\n"
    ).encode("utf-8")


def render(raster, fmt: str, palette="viridis", value_range=None, px_per_cell=8) -> bytes:
    """Render a raster as an SVG or binary PPM heatmap.

    ``px_per_cell`` sets the pixel block size (PPM) or the on-screen cell
    size (SVG).  A ``value_range`` must be finite with min < max.  When all
    values are equal and no ``value_range`` is given a single color is
    rendered and a :class:`DegenerateRangeWarning` issued.
    """
    if fmt not in ("svg", "ppm"):
        raise ValueError(f"unknown render format {fmt!r}")
    if value_range is not None and not np.isfinite(value_range).all():
        raise ValueError(f"value_range must be finite, got {value_range!r}")
    if value_range is not None and not value_range[0] < value_range[1]:
        raise ValueError(f"value_range must have min < max, got {value_range!r}")
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
    cs = raster.cellsize * scale
    return _svg(raster.bounds, scale, (
        f'<rect x="{col * cs:.4f}" y="{row * cs:.4f}" width="{cs:.4f}" '
        f'height="{cs:.4f}" fill="#{r:02x}{g:02x}{b:02x}"/>\n'
        for (row, col), (r, g, b) in zip(np.ndindex(raster.values.shape), colors)
    ))


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
    bounds = _hex_bbox(raster)
    xmin, _, _, ymax = bounds
    cells = []
    for (row, col), (r, g, b) in zip(np.ndindex(raster.values.shape), colors):
        verts = hex_vertices(*grid.cell_center(col, row), grid.r)
        pts = " ".join(
            f"{(vx - xmin) * scale:.4f},{(ymax - vy) * scale:.4f}"
            for vx, vy in verts
        )
        cells.append(f'<polygon points="{pts}" fill="#{r:02x}{g:02x}{b:02x}"/>\n')
    return _svg(bounds, scale, cells)


def _hex_ppm(raster: HexRaster, colors, px_per_cell) -> bytes:
    grid = raster.to_grid()
    xmin, ymin, xmax, ymax = _hex_bbox(raster)
    px = grid.cell_width / px_per_cell
    width = max(1, int(np.ceil((xmax - xmin) / px)))
    height = max(1, int(np.ceil((ymax - ymin) / px)))
    xs = xmin + (np.arange(width) + 0.5) * px
    ys = ymax - (np.arange(height) + 0.5) * px
    cols, rows, inside = locate_many(grid, xs[None, :], ys[:, None])
    img = np.full((height, width, 3), GAP_COLOR, dtype=np.uint8)
    img[inside] = colors[rows[inside] * raster.ncols + cols[inside]]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + img.tobytes()
