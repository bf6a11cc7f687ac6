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
    ``blocks`` holds each parity's ``(first slot, rows)``.

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


def locate_many(grid: HexGrid, xs, ys):
    """Vectorized point-to-cell lookup.

    Returns (cols, rows, inside).  cols/rows are meaningful only where
    ``inside`` is True; a point is inside when it lies in the hexagon of its
    nearest center (edges inclusive up to a small tolerance).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    w = grid.r * SQRT3
    jf = (grid.y0 - ys) / (1.5 * grid.r)
    jr = np.rint(jf)
    best_d2 = np.full(xs.shape, np.inf)
    best_col = np.zeros(xs.shape, dtype=np.int64)
    best_row = np.zeros(xs.shape, dtype=np.int64)
    for dj in (-1, 0, 1):
        j = np.clip(jr + dj, 0, grid.nrows - 1).astype(np.int64)
        x_start = grid.x0 - (j % 2) * (w / 2.0)
        i_f = (xs - x_start) / w
        ir = np.rint(i_f)
        for di in (-1, 0, 1):
            i = np.clip(ir + di, 0, grid.ncols - 1).astype(np.int64)
            cx = x_start + i * w
            cy = grid.y0 - 1.5 * grid.r * j
            d2 = (xs - cx) ** 2 + (ys - cy) ** 2
            better = d2 < best_d2
            tie = d2 == best_d2
            tie_pick = tie & (
                (j < best_row) | ((j == best_row) & (i < best_col))
            )
            take = better | tie_pick
            best_d2 = np.where(take, d2, best_d2)
            best_col = np.where(take, i, best_col)
            best_row = np.where(take, j, best_row)
    x_start = grid.x0 - (best_row % 2) * (w / 2.0)
    cx = x_start + best_col * w
    cy = grid.y0 - 1.5 * grid.r * best_row
    dx = xs - cx
    dy = ys - cy
    lim = w / 2.0 + 1e-9 * grid.r
    s3dy = SQRT3 * dy / 2.0
    inside = (
        (np.abs(dx) <= lim)
        & (np.abs(0.5 * dx + s3dy) <= lim)
        & (np.abs(-0.5 * dx + s3dy) <= lim)
    )
    return best_col, best_row, inside


def cover_domain(bounds, cells_across: int | None = None, radius: float | None = None) -> HexGrid:
    """Size a hexagonal grid to cover a rectangular domain.

    With ``cells_across`` given, the circumradius is chosen so that many cell
    widths span the domain width exactly: ``r = width / (N * sqrt(3))``.
    With ``radius`` given, the column count is the smallest that spans the
    width.  The first row of centers sits half a cell width in from the left
    edge and ``r`` below the top edge; rows are added until
    ``M * 1.5 * r + r / 2 >= height``.
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
        r = width / (n * SQRT3)
    else:
        r = float(radius)
        if not r > 0:
            raise ValueError("radius must be positive")
        n = max(1, math.ceil(width / (r * SQRT3) - 1e-9))
    m = max(1, math.ceil((height - r / 2.0) / (1.5 * r) - 1e-9))
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
