"""Two-dimensional extension of reticulated data on row-like grids.

The 2D operator is a cross combination of the 1D machinery: for a query
(x, y) it finds the y-interval containing y, evaluates the 1D extension of
each knot row in that interval's six-row neighborhood at x, and then runs
the 1D extension once more across those per-row values in y.  Rows may have
different knot sets and counts; a row whose knot range does not reach x
extrapolates with its own outermost cubic.

Evaluation is batched along horizontal lines: hexagon-row centers and
quadrature sample rows share a y, so the per-row 1D evaluations and the
cross-row combination all vectorize over x.  Lines that also share their
xs (every other hexagon row, the quadrature lines of a raster row) go in
one call: each knot row is then evaluated once, the cross-row stencil
selection runs once per y-interval, and only a Horner step runs per line.

Also here: the Catmull-Rom spline baseline (regular grids only) and the
piecewise-constant cell lookup, both with the same line-batched interface.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    IrregularGridError,
    OutOfBoundsError,
    SparseDataWarning,
    TooSparseError,
)
from .grid_io import RectRaster
from .interp1d import (
    ENO,
    OF,
    Extension1D,
    Knots1D,
    _newton_coeffs,
    _newton_eval,
    _windows,
    select_rows,
    select_stencils,
)


@dataclass(frozen=True)
class RowLikeGrid:
    """Knot rows at strictly increasing heights, each with its own knots.

    ``rows[j]`` holds the knots on the horizontal line ``y = ys[j]``.
    ``dropped_rows`` counts source rows discarded for having fewer than two
    usable knots.
    """

    ys: np.ndarray
    rows: tuple
    dropped_rows: int = 0

    def __post_init__(self):
        ys = np.asarray(self.ys, dtype=np.float64)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "rows", tuple(self.rows))
        if ys.ndim != 1 or ys.size != len(self.rows):
            raise ValueError("ys and rows must have matching lengths")
        if ys.size < 2:
            raise TooSparseError("need at least 2 usable rows")
        if not np.all(np.isfinite(ys)) or not np.all(np.diff(ys) > 0.0):
            raise ValueError("row heights must be finite and strictly increasing")
        for row in self.rows:
            if not isinstance(row, Knots1D):
                raise TypeError("rows must be Knots1D instances")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def short_rows(self) -> int:
        """Rows evaluated with a degraded (quadratic/linear) interpolant."""
        return sum(1 for row in self.rows if len(row) < 4)


def build_row_like_grid(raster: RectRaster) -> RowLikeGrid:
    """Knots at the centers of non-NODATA cells, rows ordered bottom-up.

    Fully-NODATA rows are simply absent (that is the row-like structure);
    a row left with a single knot is dropped with a warning since its datum
    cannot be used.  Fewer than two usable rows raises
    :class:`TooSparseError`.
    """
    xs_all = raster.x_centers()
    ys = []
    rows = []
    dropped = 0
    for row in range(raster.nrows - 1, -1, -1):
        mask = raster.values[row] != raster.nodata
        count = int(mask.sum())
        if count < 2:
            if count == 1:
                dropped += 1
            continue
        ys.append(raster.y_center(row))
        rows.append(Knots1D(xs=xs_all[mask], fs=raster.values[row][mask]))
    if dropped:
        warnings.warn(
            f"dropped {dropped} raster rows with a single usable cell",
            SparseDataWarning,
            stacklevel=2,
        )
    if len(rows) < 2:
        raise TooSparseError("fewer than 2 usable rows after NODATA removal")
    return RowLikeGrid(ys=np.array(ys), rows=tuple(rows), dropped_rows=dropped)


class _Window:
    """Values computed on demand, once per index, dropped as a sweep moves up."""

    def __init__(self, compute):
        self._compute = compute
        self._held = {}

    def __getitem__(self, j):
        if j not in self._held:
            self._held[j] = self._compute(j)
        return self._held[j]

    def drop_below(self, j):
        for key in [key for key in self._held if key < j]:
            del self._held[key]


def _heights(y):
    """Query heights as a 1-D array; ``y`` is a scalar or a 1-D array."""
    lines = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if lines.ndim != 1:
        raise ValueError("y must be a scalar or a 1-D array of heights")
    return lines


def _line_groups(keys):
    """(key, line indices) for each distinct key, in increasing key order."""
    return ((key, np.flatnonzero(keys == key)) for key in sorted(set(keys.tolist())))


class Extension2D:
    """Everywhere-defined extension of a row-like grid, ENO or OF flavored.

    Stencils of all knot rows are selected in one batched pass; evaluation
    batches over points sharing a y (a line) and over lines sharing their
    xs, which is how rasters and hexagon rows are swept.
    """

    def __init__(self, grid: RowLikeGrid, method: str = ENO):
        if method not in (ENO, OF):
            raise ValueError(f"unknown method {method!r}")
        self.grid = grid
        self.method = method
        self._ywin = _windows(grid.ys, 0, grid.ys.size, np.arange(grid.ys.size - 1))
        _, c, x = select_rows([row for row in grid.rows if len(row) >= 4], method)
        at = np.cumsum([0] + [len(row) - 1 if len(row) >= 4 else 0 for row in grid.rows])
        self._rows = [Extension1D(row, method, (c[a:b], x[a:b]))
                      for row, a, b in zip(grid.rows, at, at[1:])]

    def eval_line(self, xs, y) -> np.ndarray:
        """Evaluate the extension at points (xs[i], y).

        ``y`` is a scalar, giving shape ``(len(xs),)``, or a 1-D array of
        heights sharing ``xs``, giving ``(len(y), len(xs))`` whose row i
        equals the scalar call at ``y[i]`` bit for bit.  Lines are swept
        bottom-up: each knot row is evaluated once (at most seven held at a
        time) and the cross-row selection, which does not depend on y, runs
        once per interval, leaving a Horner step per line.
        """
        xs = np.asarray(xs, dtype=np.float64)
        lines = _heights(y)
        ys = self.grid.ys
        m = ys.size
        # Sweep key, increasing with y: 2*j on knot row j, 2*k + 1 inside
        # interval k, with -1 below the rows and 2*m - 1 above them.
        keys = np.searchsorted(ys, lines) + np.searchsorted(ys, lines, "right") - 1
        rows = _Window(lambda j: self._rows[j].eval_many(xs))
        stencils = _Window(lambda k: self._select(k, rows))
        out = np.empty((lines.size, xs.size))
        for key, idx in _line_groups(keys):
            rows.drop_below(key // 2 - 3)
            stencils.drop_below(key // 2 - 1)
            at = lines[idx, None]
            if key % 2 == 0 and (self.method == ENO or m < 4):
                out[idx] = rows[key // 2]
            elif key % 2 == 0:
                j = key // 2
                left, right = max(j - 1, 0), min(j, m - 2)
                vl = _newton_eval(*stencils[left], at)
                vr = _newton_eval(*stencils[right], at) if right != left else vl
                out[idx] = 0.5 * (vl + vr)
            elif m < 4 or key in (-1, 2 * m - 1):
                # Fewer than four rows, or beyond them: one fixed stencil.
                fixed = range(m) if m < 4 else range(4) if key == -1 else range(m - 4, m)
                nodes = [ys[i] for i in fixed]
                coeffs = _newton_coeffs(nodes, [rows[i] for i in fixed])
                out[idx] = _newton_eval(coeffs, nodes, at)
            else:
                out[idx] = _newton_eval(*stencils[key // 2], at)
        return out if np.ndim(y) else out[0]

    def _select(self, k, rows):
        """Per-column cross-row stencil of interval k, as the Newton
        coefficients and heights that :func:`_newton_eval` takes."""
        wx, valid, at = (w[:, k : k + 1] for w in self._ywin)
        wf = np.array([rows[j] for j in at[:, 0].tolist()])
        _, c, nodes = select_stencils(wx, wf, valid, self.method)
        return c.T, nodes.T

    def __call__(self, x: float, y: float) -> float:
        return float(self.eval_line(np.array([x], dtype=np.float64), y)[0])


def extend_2d(grid: RowLikeGrid, x: float, y: float, method: str = ENO) -> float:
    """Evaluate the 2D extension at one point.

    Builds the per-row machinery on every call; reuse an
    :class:`Extension2D` for repeated evaluation.
    """
    return Extension2D(grid, method)(x, y)


class CrsExtension:
    """Separable Catmull-Rom spline on a uniform rectangular grid.

    Tangents are central differences of neighboring values, one-sided at the
    boundary.  Queries beyond the knot hull extrapolate the end segment.
    Irregular grids are rejected.
    """

    def __init__(self, grid: RowLikeGrid):
        xs0 = grid.rows[0].xs
        for row in grid.rows[1:]:
            if row.xs.size != xs0.size or not np.array_equal(row.xs, xs0):
                raise IrregularGridError("rows have differing knot sets")
        if xs0.size < 2 or grid.ys.size < 2:
            raise IrregularGridError("need at least 2 x 2 knots")
        for name, arr in (("x", xs0), ("y", grid.ys)):
            steps = np.diff(arr)
            if np.max(steps) - np.min(steps) > 1e-9 * max(np.max(np.abs(arr)), 1.0):
                raise IrregularGridError(f"{name} knots are not uniformly spaced")
        self.xs = xs0
        self.ys = grid.ys
        self.V = np.stack([row.fs for row in grid.rows])
        self._tx = self._tangents(self.V, axis=1)

    @staticmethod
    def _tangents(V, axis):
        """Index-space tangents: central differences, one-sided at the ends."""
        t = np.empty_like(V)
        sl = [slice(None)] * V.ndim

        def seg(a, b):
            s = sl.copy()
            s[axis] = slice(a, b)
            return tuple(s)

        t[seg(1, -1)] = 0.5 * (V[seg(2, None)] - V[seg(None, -2)])
        t[seg(0, 1)] = V[seg(1, 2)] - V[seg(0, 1)]
        t[seg(-1, None)] = V[seg(-1, None)] - V[seg(-2, -1)]
        return t

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

    def _row_eval(self, row_idx, xs):
        """Evaluate one knot row at query xs (vectorized)."""
        knots = self.xs
        n = knots.size
        k = np.clip(np.searchsorted(knots, xs) - 1, 0, n - 2)
        h = knots[k + 1] - knots[k]
        t = (xs - knots[k]) / h
        f = self.V[row_idx]
        m = self._tx[row_idx]
        return self._hermite(f[k], f[k + 1], m[k], m[k + 1], t)

    def eval_line(self, xs, y) -> np.ndarray:
        """Evaluate at points (xs[i], y); ``y`` as in :meth:`Extension2D.eval_line`."""
        xs = np.asarray(xs, dtype=np.float64)
        lines = _heights(y)
        ys = self.ys
        m = ys.size
        segs = np.clip(np.searchsorted(ys, lines) - 1, 0, m - 2)
        rows = _Window(lambda j: self._row_eval(j, xs))
        out = np.empty((lines.size, xs.size))
        for l, idx in _line_groups(segs):
            rows.drop_below(l - 1)
            g0 = rows[l]
            g1 = rows[l + 1]
            if l - 1 >= 0:
                m0 = 0.5 * (g1 - rows[l - 1])
            else:
                m0 = g1 - g0
            if l + 2 <= m - 1:
                m1 = 0.5 * (rows[l + 2] - g0)
            else:
                m1 = g1 - g0
            t = (lines[idx, None] - ys[l]) / (ys[l + 1] - ys[l])
            out[idx] = self._hermite(g0, g1, m0, m1, t)
        return out if np.ndim(y) else out[0]

    def __call__(self, x: float, y: float) -> float:
        return float(self.eval_line(np.array([x], dtype=np.float64), y)[0])


def extend_crs(grid: RowLikeGrid, x: float, y: float) -> float:
    """Catmull-Rom value at one point; see :class:`CrsExtension`."""
    return CrsExtension(grid)(x, y)


class IdExtension:
    """Piecewise-constant extension: the value of the cell containing (x, y)."""

    def __init__(self, raster: RectRaster):
        self.raster = raster

    def eval_line(self, xs, y, fill: float | None = None) -> np.ndarray:
        """Cell values at points (xs[i], y); ``y`` as in :meth:`Extension2D.eval_line`.

        Points outside the raster get ``fill``, or raise without one.
        """
        r = self.raster
        xs = np.asarray(xs, dtype=np.float64)
        lines = _heights(y)
        xmin, ymin, xmax, ymax = r.bounds
        col = np.floor((xs - r.xll) / r.cellsize).astype(np.int64)
        col[xs == xmax] = r.ncols - 1
        row_up = np.floor((lines - r.yll) / r.cellsize).astype(np.int64)
        row_up[lines == ymax] = r.nrows - 1
        row = r.nrows - 1 - row_up
        outside = ((col < 0) | (col >= r.ncols))[None, :] | (
            (row < 0) | (row >= r.nrows)
        )[:, None]
        if outside.any() and fill is None:
            i, j = np.argwhere(outside)[0]
            raise OutOfBoundsError(f"point ({xs[j]}, {lines[i]}) outside raster bounds")
        out = r.values[
            np.clip(row, 0, r.nrows - 1)[:, None], np.clip(col, 0, r.ncols - 1)
        ].astype(np.float64)
        if outside.any():
            out[outside] = float(fill)
        return out if np.ndim(y) else out[0]

    def __call__(self, x: float, y: float) -> float:
        return float(self.eval_line(np.array([x], dtype=np.float64), y)[0])


def extend_id(raster: RectRaster, x: float, y: float) -> float:
    """Value of the raster cell containing (x, y); OutOfBounds outside."""
    return IdExtension(raster)(x, y)
