"""Two-dimensional extension of reticulated data on row-like grids.

The 2D operator is a cross combination of the 1D machinery: for a query
(x, y) it finds the y-interval containing y, evaluates the 1D extension of
each knot row in that interval's six-row neighborhood at x, and then runs
the 1D extension once more across those per-row values in y.  Rows may have
different knot sets and counts; a row whose knot range does not reach x
extrapolates with its own outermost cubic.  A row-like grid holds every
knot once, in two flat arrays with row offsets, and each row's knots are
views of them; the knot table and the Catmull-Rom baseline read that
store and copy none of it.  A raster becomes a row-like grid in one pass:
its kept knots go into two flat arrays, checked once.

Evaluation is batched along horizontal lines: hexagon-row centers and
quadrature sample rows share a y, so the per-row 1D evaluations and the
cross-row combination all vectorize over x.  Lines that also share their
xs (every other hexagon row, the quadrature lines of a raster row) go in
one call: every knot row the lines need is evaluated once, in one pass
over the flat knot table; the knot table's own piece builder makes the
cross-row pieces, end cubics included, with each column of row values as
its knot values; and one Horner pass serves all lines.

Also here: the Catmull-Rom spline baseline (regular grids only) and the
piecewise-constant cell lookup, both with the same line-batched interface,
and :func:`make_extension`, which builds any of the four by method name.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import interp1d
from .errors import (
    IrregularGridError,
    OutOfBoundsError,
    SparseDataWarning,
    TooSparseError,
)
from .grid_io import RectRaster
from .interp1d import (
    ENO,
    Extension1D,
    Knots1D,
    KnotTable,
    _newton_eval,
    _on_knot,
    _pieces,
    _windows,
)


@dataclass(frozen=True)
class RowLikeGrid:
    """Knot rows at strictly increasing heights, each with its own knots.

    ``rows[j]`` holds the knots on the horizontal line ``y = ys[j]``.
    ``dropped_rows`` counts source rows discarded for having fewer than two
    usable knots.

    The grid is the one store of its knots: row j's abscissas are
    ``xs[start[j] : start[j + 1]]`` and its values ``fs`` alike.  The
    constructor copies the given rows into that store once; ``rows[j]`` is
    then a :class:`Knots1D` of views of it, not the caller's object.
    """

    ys: np.ndarray
    rows: tuple
    dropped_rows: int = 0
    xs: np.ndarray = field(init=False, repr=False)
    fs: np.ndarray = field(init=False, repr=False)
    start: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ys = np.asarray(self.ys, dtype=np.float64)
        rows = tuple(self.rows)
        if ys.ndim != 1 or ys.size != len(rows):
            raise ValueError("ys and rows must have matching lengths")
        if ys.size < 2:
            raise TooSparseError("need at least 2 usable rows")
        if not np.all(np.isfinite(ys)) or not np.all(np.diff(ys) > 0.0):
            raise ValueError("row heights must be finite and strictly increasing")
        for row in rows:
            if not isinstance(row, Knots1D):
                raise TypeError("rows must be Knots1D instances")
        start = np.concatenate([[0], np.cumsum([len(row) for row in rows])])
        xs = np.concatenate([row.xs for row in rows])
        fs = np.concatenate([row.fs for row in rows])
        rows = tuple(Knots1D._trusted(xs[a:b], fs[a:b])
                     for a, b in zip(start[:-1].tolist(), start[1:].tolist()))
        for name, value in (("ys", ys), ("rows", rows), ("xs", xs), ("fs", fs), ("start", start)):
            object.__setattr__(self, name, value)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def short_rows(self) -> int:
        """Rows of 2-3 knots, evaluated with their quadratic or linear interpolant."""
        return int((np.diff(self.start) < 4).sum())


def build_row_like_grid(raster: RectRaster) -> RowLikeGrid:
    """Knots at the centers of non-NODATA cells, rows ordered bottom-up.

    Fully-NODATA rows are simply absent (that is the row-like structure);
    a row left with a single knot is dropped with a warning since its datum
    cannot be used.  Fewer than two usable rows raises
    :class:`TooSparseError`.

    One check of the flat knot arrays raises what :class:`Knots1D` would for
    the lowest faulty row, so each row's views of them are not checked again;
    the grid then copies those views into its own store.
    """
    keep = raster.values[::-1] != raster.nodata
    counts = keep.sum(axis=1)
    used = counts >= 2
    keep &= used[:, None]
    xs = np.broadcast_to(raster.x_centers(), keep.shape)[keep]
    fs = raster.values[::-1][keep]
    ends = np.cumsum(counts[used])
    starts = ends - counts[used]
    rising = np.append(xs[1:] > xs[:-1], True)
    rising[ends - 1] = True  # a row's last knot has no successor in its row
    ok = np.logical_and.reduceat(rising & np.isfinite(xs) & np.isfinite(fs), starts)
    if not ok.all():  # the public constructor raises its own error for this row
        j = np.argmin(ok)
        Knots1D(xs[starts[j] : ends[j]], fs[starts[j] : ends[j]])
    dropped = int((counts == 1).sum())
    if dropped:
        warnings.warn(f"dropped {dropped} raster rows with a single usable cell",
                      SparseDataWarning, stacklevel=2)
    if ends.size < 2:
        raise TooSparseError("fewer than 2 usable rows after NODATA removal")
    rows = [Knots1D._trusted(xs[a:b], fs[a:b]) for a, b in zip(starts.tolist(), ends.tolist())]
    ys = raster.y_center(np.arange(raster.nrows - 1, -1, -1)[used])
    return RowLikeGrid(ys=ys, rows=rows, dropped_rows=dropped)


def _lines(xs, y):
    """Float arrays of ``xs`` and of the heights ``y``, a scalar or 1-D, as 1-D."""
    lines = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if lines.ndim != 1:
        raise ValueError("y must be a scalar or a 1-D array of heights")
    return np.asarray(xs, dtype=np.float64), lines


class _LineExtension:
    """An extension evaluated along lines by ``eval_line``, called at one point."""

    def __call__(self, x: float, y: float) -> float:
        return float(self.eval_line([x], y)[0])


class Extension2D(_LineExtension):
    """Everywhere-defined extension of a row-like grid, ENO or OF flavored.

    One :class:`KnotTable` over the grid's own knot store holds the pieces
    of every row; ``_rows`` holds a thin :class:`Extension1D` view of each.
    No evaluation reads ``_rows``: it stays because the benchmark's
    ``interp1d.build`` span wraps ``Extension1D.__init__``, and
    ``hexbench/test_bench.py`` expects that span.  Evaluation batches over
    points sharing a y (a line) and over lines sharing their xs, which is
    how rasters and hexagon rows are swept.
    """

    def __init__(self, grid: RowLikeGrid, method: str = ENO):
        self._table = KnotTable(grid.xs, grid.fs, grid.start, method)
        self.grid = grid
        self.method = method
        self._rows = [Extension1D(row, method, self._table, r) for r, row in enumerate(grid.rows)]

    def eval_line(self, xs, y) -> np.ndarray:
        """Evaluate the extension at points (xs[i], y).

        ``y`` is a scalar, giving shape ``(len(xs),)``, or a 1-D array of
        heights sharing ``xs``, giving ``(len(y), len(xs))`` whose row i
        equals the scalar call at ``y[i]`` bit for bit.  Each line finds its
        cross-row pieces as :meth:`KnotTable.eval` finds a point's.  Every knot
        row the lines need is evaluated once, in one table pass; the knot
        table's builder makes the pieces, a block of intervals per call; one
        Horner pass then serves all lines.
        """
        xs, lines = _lines(xs, y)
        ys = self.grid.ys
        m = ys.size
        knot, direct, mean, lo, hi = _on_knot(ys, 0, m, ys.searchsorted(lines), lines,
                                              self.method)
        # Piece k is interval k's stencil, or the end cubic below (-1) or above
        # (m - 1); on fewer than four rows every piece is their interpolant.
        ks = np.bincount(np.concatenate([lo[~direct], hi[mean]]) + 1).nonzero()[0] - 1
        window = _windows(ys, 0, m, np.clip(ks, 0, m - 2))
        near = window[2]  # the rows each piece reads
        rows = np.bincount(np.concatenate([knot[direct], near.ravel()])).nonzero()[0]
        V = np.empty((m, xs.size))
        V[rows] = self._table.eval(rows, xs)
        out = np.empty((lines.size, xs.size))
        out[direct] = V[knot[direct]]
        c, nodes = np.empty((4, ks.size, xs.size)), np.empty((3, ks.size, xs.size))
        step = max(interp1d._BLOCK // max(xs.size, 1), 1)  # pieces or lines per block
        first, last = ks.searchsorted([0, m - 1])  # the end cubics, if any, come first and last
        cuts = sorted({0, *range(first, last, step), last, ks.size})
        for part in map(slice, cuts[:-1], cuts[1:]):  # one kind of piece per call
            c[:, part], nodes[:, part] = _pieces(ys, V, 0, m, ks[part], self.method,
                                                 tuple(w[:, part] for w in window))
        g, h = ks.searchsorted(lo), ks.searchsorted(hi)  # each line's pieces in c and nodes
        at = (~direct).nonzero()[0]
        for b in range(0, at.size, step):
            i = at[b : b + step]
            out[i] = _newton_eval(c[:, g[i]], nodes[:, g[i]], lines[i, None])
            i = i[mean[i]]
            if i.size:
                out[i] = 0.5 * (out[i] + _newton_eval(c[:, h[i]], nodes[:, h[i]], lines[i, None]))
        return out if np.ndim(y) else out[0]


class CrsExtension(_LineExtension):
    """Separable Catmull-Rom spline on a uniform rectangular grid.

    Tangents are the index-space ``np.gradient``, along the knot rows and then
    across the rows interpolated at a query's x: central differences, one-sided
    at the boundary.  Queries beyond the knot hull extrapolate the end
    segment.  Irregular grids are rejected.  The knot values ``V`` are a
    view of the grid's knot store.
    """

    def __init__(self, grid: RowLikeGrid):
        m, xs0 = grid.nrows, grid.rows[0].xs
        if (np.diff(grid.start) != xs0.size).any() or (grid.xs.reshape(m, -1) != xs0).any():
            raise IrregularGridError("rows have differing knot sets")
        for name, arr in (("x", xs0), ("y", grid.ys)):
            steps = np.diff(arr)
            if np.max(steps) - np.min(steps) > 1e-9 * max(np.max(np.abs(arr)), 1.0):
                raise IrregularGridError(f"{name} knots are not uniformly spaced")
        self.xs = xs0
        self.ys = grid.ys
        self.V = grid.fs.reshape(m, -1)
        self._tx = np.gradient(self.V, axis=1)  # index-space tangents

    @staticmethod
    def _hermite(f0, f1, m0, m1, t):
        t2 = t * t
        t3 = t2 * t
        return (
            (2.0 * t3 - 3.0 * t2 + 1.0) * f0
            + (t3 - 2.0 * t2 + t) * m0
            + (-2.0 * t3 + 3.0 * t2) * f1
            + (t3 - t2) * m1
        )

    def eval_line(self, xs, y) -> np.ndarray:
        """Evaluate at points (xs[i], y); ``y`` as in :meth:`Extension2D.eval_line`.

        The knot rows from the first to the last that the lines need are
        evaluated once, in one pass, and so are their tangents across the rows.
        """
        xs, lines = _lines(xs, y)
        ys = self.ys
        m = ys.size
        l = np.clip(np.searchsorted(ys, lines) - 1, 0, m - 2)
        # Rows l - 1 .. l + 2 of every line: its rows l and l + 1 are inside the
        # block or at the grid's end, so their tangents are the whole grid's.
        a, b = (max(l.min() - 1, 0), min(l.max() + 3, m)) if l.size else (0, 2)
        k = np.clip(np.searchsorted(self.xs, xs) - 1, 0, self.xs.size - 2)
        t = (xs - self.xs[k]) / (self.xs[k + 1] - self.xs[k])
        f, d = self.V[a:b], self._tx[a:b]
        G = self._hermite(f[:, k], f[:, k + 1], d[:, k], d[:, k + 1], t)
        T, i = np.gradient(G, axis=0), l - a
        t = ((lines - ys[l]) / (ys[l + 1] - ys[l]))[:, None]
        out = self._hermite(G[i], G[i + 1], T[i], T[i + 1], t)
        return out if np.ndim(y) else out[0]


class IdExtension(_LineExtension):
    """Piecewise-constant extension: the value of the cell containing (x, y)."""

    def __init__(self, raster: RectRaster):
        self.raster = raster

    def eval_line(self, xs, y, fill: float | None = None) -> np.ndarray:
        """Cell values at points (xs[i], y); ``y`` as in :meth:`Extension2D.eval_line`.

        Points outside the raster get ``fill``, or raise without one.
        """
        r = self.raster
        xs, lines = _lines(xs, y)
        xmin, ymin, xmax, ymax = r.bounds
        col = np.floor((xs - r.xll) / r.cellsize)  # decided on floats: far points overflow int64
        col[xs == xmax] = r.ncols - 1
        row_up = np.floor((lines - r.yll) / r.cellsize)
        row_up[lines == ymax] = r.nrows - 1
        row = r.nrows - 1 - row_up
        outside = ((col < 0) | (col >= r.ncols))[None, :] | (
            (row < 0) | (row >= r.nrows)
        )[:, None]
        if outside.any() and fill is None:
            i, j = np.argwhere(outside)[0]
            raise OutOfBoundsError(f"point ({xs[j]}, {lines[i]}) outside raster bounds")
        out = r.values[
            np.clip(row, 0, r.nrows - 1).astype(np.int64)[:, None],
            np.clip(col, 0, r.ncols - 1).astype(np.int64),
        ].astype(np.float64)
        if outside.any():
            out[outside] = float(fill)
        return out if np.ndim(y) else out[0]


def make_extension(raster: RectRaster, method: str):
    """The ``id``, ``crs``, ``eno`` or ``of`` extension of ``raster``."""
    if method == "id":
        return IdExtension(raster)
    grid = build_row_like_grid(raster)
    if method == "crs":
        return CrsExtension(grid)
    return Extension2D(grid, method)
