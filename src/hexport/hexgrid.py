"""Regular pointy-top hexagonal tessellations.

Cells are indexed (col, row) from the upper-left cell, whose center is
``(x0, y0)``.  The circumradius ``r`` equals the hexagon side; adjacent cell
centers are ``r*sqrt(3)`` apart (the flat-to-flat cell width) and rows are
``1.5*r`` apart, with odd rows offset half a cell width to the left.  World
y grows upward, so row index grows downward in y.

Faces are numbered 1..6 counterclockwise starting from the +x face; the
outward unit normal of face j points at ``(j-1) * 60`` degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import EmptyDomainError, OutOfRangeError

SQRT3 = math.sqrt(3.0)

# Outward unit normals of faces 1..6 (rows 0..5), exact half-integer forms.
FACE_NORMALS = np.array(
    [
        [1.0, 0.0],
        [0.5, SQRT3 / 2.0],
        [-0.5, SQRT3 / 2.0],
        [-1.0, 0.0],
        [-0.5, -SQRT3 / 2.0],
        [0.5, -SQRT3 / 2.0],
    ]
)

# Index offsets (dcol, drow) of the neighbor behind each face: [row parity, face].
_OFFSETS = np.array(
    [
        [(1, 0), (1, -1), (0, -1), (-1, 0), (0, 1), (1, 1)],
        [(1, 0), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1)],
    ]
)

# The face of the neighbor that looks back at us: face j pairs with j+3 (mod 6).
OPPOSITE_FACE = (4, 5, 6, 1, 2, 3)


class Neighbor(NamedTuple):
    cell: tuple
    face: int
    normal: tuple


@dataclass(frozen=True)
class HexGrid:
    """Geometry of an ncols x nrows pointy-top hexagonal raster."""

    ncols: int
    nrows: int
    r: float
    x0: float
    y0: float

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError("grid needs at least one column and one row")
        if not self.r > 0:
            raise ValueError("circumradius must be positive")

    @property
    def cell_width(self) -> float:
        """Flat-to-flat width; also the distance between adjacent centers."""
        return self.r * SQRT3

    @property
    def side(self) -> float:
        return self.r

    @property
    def cell_area(self) -> float:
        return 1.5 * SQRT3 * self.r * self.r

    def _check(self, col: int, row: int):
        if not (0 <= col < self.ncols and 0 <= row < self.nrows):
            raise OutOfRangeError(f"cell ({col}, {row}) outside {self.ncols}x{self.nrows} grid")

    def cell_center(self, col: int, row: int):
        """World coordinates of the cell center."""
        self._check(col, row)
        w = self.r * SQRT3
        x = self.x0 + col * w - (row % 2) * (w / 2.0)
        y = self.y0 - 1.5 * self.r * row
        return (x, y)

    def row_centers_x(self, row: int) -> np.ndarray:
        """x coordinates of all cell centers in one row."""
        if not 0 <= row < self.nrows:
            raise OutOfRangeError(f"row {row} outside grid")
        w = self.r * SQRT3
        start = self.x0 - (row % 2) * (w / 2.0)
        return start + np.arange(self.ncols) * w

    def row_y(self, row: int) -> float:
        if not 0 <= row < self.nrows:
            raise OutOfRangeError(f"row {row} outside grid")
        return self.y0 - 1.5 * self.r * row

    def neighbors(self, col: int, row: int):
        """Existing neighbors as (cell, face, outward normal), face 1..6."""
        self._check(col, row)
        out = []
        for f, idx in enumerate(neighbor_table(self, [col], [row])[:, 0].tolist()):
            if idx >= 0:
                n = FACE_NORMALS[f]
                cell = (idx % self.ncols, idx // self.ncols)
                out.append(Neighbor(cell=cell, face=f + 1, normal=(n[0], n[1])))
        return out

    def locate(self, x: float, y: float) -> Optional[tuple]:
        """Cell containing (x, y), or None outside the tessellated region.

        Points on a shared edge resolve to the nearest center with the
        smallest (row, col).
        """
        cols, rows, inside = locate_many(
            self, np.array([x], dtype=np.float64), np.array([y], dtype=np.float64)
        )
        if not inside[0]:
            return None
        return (int(cols[0]), int(rows[0]))


def neighbor_table(grid: HexGrid, cols, rows) -> np.ndarray:
    """Flat indices ``row * ncols + col`` of the neighbors behind faces 1..6.

    ``cols`` and ``rows`` are equal-length integer sequences of in-grid
    cells; the result is face-major, ``(6, k)``, with -1 where the neighbor
    would lie off the grid.
    """
    cols = np.asarray(cols, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    dcol, drow = np.ascontiguousarray(_OFFSETS.transpose(2, 1, 0))  # [face, parity]
    odd = rows % 2
    nc = cols + dcol.take(odd, axis=1)
    nr = rows + drow.take(odd, axis=1)
    inside = (nc >= 0) & (nc < grid.ncols) & (nr >= 0) & (nr < grid.nrows)
    return np.where(inside, nr * grid.ncols + nc, -1)


class ParityLayout:
    """A flat layout of an ``nrows x ncols`` grid's cell values in which every
    neighbor of a row parity sits a constant offset away.

    Even rows come first, then odd rows, each row followed by one pad slot,
    so rows of a parity are ``width = ncols + 1`` slots apart and a row's
    pad slot is also the next row's left pad.  One pad slot leads the even
    rows, one pad row separates the two blocks and one follows the odd
    rows, with one tail slot after it that the farthest shifted slice
    reaches when ``nrows`` is odd; ``size`` counts every slot.
    ``blocks`` holds each parity's ``(first slot, rows)``, and ``spans``
    cuts the slots into two halves at the first odd row, each a slice
    that holds one parity's rows and no slot of the other's.

    ``faces[f]`` holds, for face f + 1 and each row parity, a pair of equal
    1-D slices ``(cells, neighbors)``: ``cells`` spans the rows of that
    parity, their pad slots included, and ``neighbors`` is the same span
    shifted to the neighbors behind the face.  Neighbors off the grid fall
    on pads.  This is :func:`neighbor_table` for whole arrays.
    """

    def __init__(self, nrows: int, ncols: int):
        self.shape = (nrows, ncols)
        w = self.width = ncols + 1
        counts = ((nrows + 1) // 2, nrows // 2)
        bases = (1, 1 + (counts[0] + 1) * w)
        self.blocks = tuple(zip(bases, counts))
        self.size = bases[1] + (counts[1] + 1) * w + 1
        self.spans = (slice(0, bases[1]), slice(bases[1], self.size))
        self.faces = []
        for face in range(6):
            pairs = []
            for parity, (base, n) in enumerate(self.blocks):
                dcol, drow = (int(d) for d in _OFFSETS[parity, face])
                # Row 2k + parity + drow is row k + (parity + drow) // 2 of
                # its own parity's block.
                at = bases[(parity + drow) % 2] + (parity + drow) // 2 * w + dcol
                pairs.append((slice(base, base + n * w), slice(at, at + n * w)))
            self.faces.append(pairs)

    def rows(self, flat: np.ndarray) -> list:
        """Views of the even and the odd rows of ``flat``, whose last axis is
        the layout: ``(..., rows of that parity, ncols)`` each."""
        lead, w, ncols = flat.shape[:-1], self.width, self.shape[1]
        return [flat[..., base : base + n * w].reshape(*lead, n, w)[..., :ncols]
                for base, n in self.blocks]

    def cells(self, flat: np.ndarray) -> np.ndarray:
        """A fresh ``(..., nrows, ncols)`` array of the cell values in ``flat``."""
        out = np.empty(flat.shape[:-1] + self.shape, dtype=flat.dtype)
        for parity, rows in enumerate(self.rows(flat)):
            out[..., parity::2, :] = rows
        return out

    def cell_index(self, slots: np.ndarray) -> np.ndarray:
        """Row-major indices ``row * ncols + col`` of the cells at ``slots``."""
        (even, _), (odd, _) = self.blocks
        parity = (slots >= odd).astype(np.intp)
        k, col = np.divmod(slots - np.where(parity, odd, even), self.width)
        return (2 * k + parity) * self.shape[1] + col


def _index(v, n: int) -> np.ndarray:
    """The float indices ``v`` clipped to ``0..n - 1`` as integers; NaN gives 0."""
    return np.fmin(np.fmax(v, 0), n - 1).astype(np.int64)  # fmax drops a NaN


def locate_many(grid: HexGrid, xs, ys):
    """Vectorized point-to-cell lookup.

    Returns (cols, rows, inside), each of the shape that ``xs`` and ``ys``
    broadcast to: a row ``xs[None, :]`` and a column ``ys[:, None]`` give
    the lookup of their whole lattice without a meshgrid.  A point is inside
    when it lies in the hexagon of its nearest center (edges inclusive up to
    a small tolerance); ties go to the smallest (row, col).  cols/rows are
    meaningful only where ``inside`` is True, and are always in the grid.

    Only four centers are scored: rows ``floor(jf)`` and ``floor(jf) + 1``
    around the point's fractional row ``jf``, and in each of them columns
    ``floor(i_f)`` and ``floor(i_f) + 1``, all clipped to the grid.  Every
    other center is at least ``1.5 r`` away vertically or a cell width
    horizontally, while a point inside its hexagon is within ``r`` of its
    center, so that center and any tied one are among the four.  Outside
    the tessellation the nearest of the four need not be the nearest
    center: cols/rows of an outside point are some in-grid cell near it,
    and may differ from those of a lookup that scores more candidates.
    NaN and far points are outside and raise no floating-point warning.
    Offsets are squared after an exact scaling by a power of two near
    ``1 / r``, so a grid scaled by a power of two looks up alike, even with
    cells near the float range's ends.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    w = grid.r * SQRT3
    scale = math.ldexp(1.0, -math.frexp(grid.r)[1])
    # Points 1e154 cells away square past the float range, non-finite ones
    # give NaN; every comparison with those is False, so they are outside.  A
    # point no candidate is finitely near keeps the NaN offsets and cell (0, 0).
    shape = np.broadcast_shapes(xs.shape, ys.shape)
    best = [np.full(shape, v) for v in (np.inf, np.nan, np.nan, 0, 0)]  # d2, dx, dy, col, row
    with np.errstate(over="ignore", invalid="ignore"):
        jf = np.floor((grid.y0 - ys) / (1.5 * grid.r))
        for dj in (0, 1):
            j = _index(jf + dj, grid.nrows)
            x_start = grid.x0 - (j % 2) * (w / 2.0)
            dy = ys - (grid.y0 - 1.5 * grid.r * j)
            dy2 = (dy * scale) ** 2
            i_f = np.floor((xs - x_start) / w)
            for di in (0, 1):
                i = _index(i_f + di, grid.ncols)
                dx = xs - (x_start + i * w)
                d2 = (dx * scale) ** 2 + dy2
                # Candidates come in (row, col) order, so taking only a
                # strictly nearer one leaves a tie with the smallest.
                take = d2 < best[0]
                for b, new in zip(best, (d2, dx, dy, i, j)):
                    np.copyto(b, new, where=take)
        _, dx, dy, cols, rows = best
        lim = w / 2.0 + 1e-9 * grid.r
        s3dy = SQRT3 * dy / 2.0
        inside = (
            (np.abs(dx) <= lim)
            & (np.abs(0.5 * dx + s3dy) <= lim)
            & (np.abs(-0.5 * dx + s3dy) <= lim)
        )
    return cols, rows, inside


def cover_domain(bounds, cells_across: int | None = None, radius: float | None = None) -> HexGrid:
    """Size a hexagonal grid to cover a rectangular domain.

    With ``cells_across`` given, the circumradius is chosen so that many cell
    widths span the domain width exactly: ``r = width / (N * sqrt(3))``.
    With ``radius`` given, the column count is the smallest that spans the
    width.  The first row of centers sits half a cell width in from the left
    edge and ``r`` below the top edge; rows are added until
    ``M * 1.5 * r + r / 2 >= height``.  Raises ``ValueError`` when the cell
    width ``r * sqrt(3)``, the column count or the row count is not finite.
    """
    xmin, ymin, xmax, ymax = (float(v) for v in bounds)
    width = xmax - xmin
    height = ymax - ymin
    if not (width > 0 and height > 0):
        raise EmptyDomainError(f"domain {bounds} has no area")
    if (cells_across is None) == (radius is None):
        raise ValueError("give exactly one of cells_across or radius")
    if cells_across is not None:
        n = int(cells_across)
        if n < 1:
            raise ValueError("cells_across must be at least 1")
        try:
            r = width / (n * SQRT3)
        except OverflowError:  # n is past the float range
            r = 0.0
    else:
        r = float(radius)
        if not r > 0:
            raise ValueError("radius must be positive")
    cols = width / (r * SQRT3) if r > 0 else math.inf
    rows = (height - r / 2.0) / (1.5 * r) if r > 0 else math.inf
    if not all(map(math.isfinite, (r * SQRT3, cols, rows))):
        raise ValueError(
            f"cell width {r * SQRT3!r} gives no finite column and row count "
            f"for domain {bounds}"
        )
    if cells_across is None:
        n = max(1, math.ceil(cols - 1e-9))
    m = max(1, math.ceil(rows - 1e-9))
    return HexGrid(
        ncols=n,
        nrows=m,
        r=r,
        x0=xmin + r * SQRT3 / 2.0,
        y0=ymax - r,
    )


def hex_vertices(cx: float, cy: float, r: float):
    """The six vertices of a pointy-top hexagon, counterclockwise from the top."""
    out = []
    for k in range(6):
        ang = math.pi / 2.0 + k * math.pi / 3.0
        out.append((cx + r * math.cos(ang), cy + r * math.sin(ang)))
    return out
