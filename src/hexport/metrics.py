"""Error measures and synthetic test data.

Relative L1 errors between a square raster, its hexagonal port, and an
analytic reference field are estimated by midpoint quadrature on a subgrid
of each square cell, all normalized by the same integral of |raster|
over the overlap of the two tessellations.  A seeded degradation generator
punches constrained random holes into a raster for recovery studies, and
the recovery errors (RMSE and max-abs at the eliminated knots) quantify how
well an extension refills them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import interp1d
from .errors import (
    ConstraintInfeasibleError,
    EmptyOverlapError,
    GeometryMismatchError,
)
from .grid_io import HexRaster, RectRaster
from .hexgrid import locate_many
from .interp1d import ENO
from .interp2d import make_extension

# Degradation presets: level -> (max row gap, max in-row gap) in cell units.
DEGRADE_LEVELS = {1: (3, 3), 2: (4, 3), 3: (5, 3), 4: (5, 4), 5: (5, 5)}


@dataclass(frozen=True)
class RungeField:
    """The separable bump a / ((1+x^2)(1+y^2)); sharper for larger a."""

    a: float

    def __call__(self, x, y):
        return self.a / ((1.0 + x * x) * (1.0 + y * y))

    @property
    def name(self) -> str:
        return f"runge(a={self.a})"


def runge_raster(bounds, ncols: int, nrows: int, a: float) -> RectRaster:
    """Square raster whose cell values sample the Runge field at cell centers."""
    xmin, ymin, xmax, ymax = (float(v) for v in bounds)
    if ncols < 1 or nrows < 1:
        raise ValueError("ncols and nrows must be positive")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("bounds must have positive extent")
    cellsize = (xmax - xmin) / ncols
    field = RungeField(a)
    xs = xmin + (np.arange(ncols) + 0.5) * cellsize
    ys = ymin + (nrows - np.arange(nrows) - 0.5) * cellsize
    # Far from the origin the denominator overflows to inf, and the field's
    # value, a / inf, is the zero it tends to.
    with np.errstate(over="ignore"):
        values = field(xs[None, :], ys[:, None])
    return RectRaster(values=values, xll=xmin, yll=ymin, cellsize=cellsize)


def _sample_points(raster: RectRaster, quad: int):
    """Midpoint sample coordinates, quad x quad per cell, top row first."""
    cs = raster.cellsize
    step = cs / quad
    xs = raster.xll + (np.arange(raster.ncols * quad) + 0.5) * step
    y_top = raster.yll + raster.nrows * cs
    ys = y_top - (np.arange(raster.nrows * quad) + 0.5) * step
    return xs, ys


def l1_errors(raster: RectRaster, hexraster: HexRaster, field=None, quad: int = 8) -> dict:
    """Relative L1 distances between raster, hex port, and optional field.

    Keys: ``eps_hr`` (hex vs raster), plus ``eps_ha`` and ``eps_ra`` when an
    analytic field is given.  All three divide by the integral of |raster|
    over the same overlap samples.
    """
    if quad < 1:
        raise ValueError("quad must be at least 1")
    xs, ys = _sample_points(raster, quad)
    X, Y = np.meshgrid(xs, ys)
    gr = np.repeat(np.repeat(raster.values, quad, axis=0), quad, axis=1)
    grid = hexraster.to_grid()
    cols, rows, inside = locate_many(grid, X.ravel(), Y.ravel())
    gh = np.where(inside, hexraster.values[rows, cols], np.nan)
    mask = (
        inside
        & (gr.ravel() != raster.nodata)
        & (gh != hexraster.nodata)
    )
    if not mask.any():
        raise EmptyOverlapError("rasters share no usable samples")
    grm = gr.ravel()[mask]
    ghm = gh[mask]
    gamma = np.abs(grm).sum()
    if gamma == 0.0:
        raise EmptyOverlapError("reference raster is identically zero on the overlap")
    out = {"eps_hr": float(np.abs(grm - ghm).sum() / gamma)}
    if field is not None:
        gm = field(X.ravel()[mask], Y.ravel()[mask])
        out["eps_ha"] = float(np.abs(gm - ghm).sum() / gamma)
        out["eps_ra"] = float(np.abs(gm - grm).sum() / gamma)
    return out


def extension_l1_errors(
    raster: RectRaster, method: str = ENO, field=None, quad: int = 8
) -> dict:
    """Relative L1 errors of the extension function over the raster domain.

    ``eps_er`` compares the extension to the piecewise-constant raster;
    ``eps_ea`` (when a field is given) compares it to the analytic field.
    Both divide by the integral of |raster|.

    Whole raster rows go to ``eval_line`` in blocks of at most ``_BLOCK``
    points; the sums run line by line in raster order, whatever the blocks.
    """
    if quad < 1:
        raise ValueError("quad must be at least 1")
    ext = make_extension(raster, method)
    xs, ys = _sample_points(raster, quad)
    sum_er = sum_ea = gamma = 0.0
    rows = (raster.values != raster.nodata).any(axis=1).nonzero()[0]
    step = max(interp1d._BLOCK // (quad * xs.size), 1)  # raster rows per call
    row_ys = ys.reshape(raster.nrows, quad)
    for block in (rows[b : b + step] for b in range(0, rows.size, step)):
        lines = ext.eval_line(xs, row_ys[block].ravel()).reshape(block.size, quad, xs.size)
        for row, row_lines in zip(block, lines):
            gr = np.repeat(raster.values[row], quad)
            valid = gr != raster.nodata
            for y, gt in zip(row_ys[row], row_lines):
                gamma += np.abs(gr[valid]).sum()
                sum_er += np.abs(gt[valid] - gr[valid]).sum()
                if field is not None:
                    sum_ea += np.abs(gt[valid] - field(xs[valid], float(y))).sum()
    if gamma == 0.0:
        raise EmptyOverlapError("raster has no usable samples")
    out = {"eps_er": float(sum_er / gamma)}
    if field is not None:
        out["eps_ea"] = float(sum_ea / gamma)
    return out


def _thin_indices(count: int, max_gap: int, rng) -> np.ndarray:
    """Kept indices of a line scan: ends always kept, gaps at most max_gap.

    Walks left to right; each interior index is dropped with probability 1/2
    unless keeping it is forced to honor the gap bound.  Each unforced index
    takes one int64 coin ``rng.integers(0, 2)``, in order, and forced ones
    take none.  The coins come from one batched draw per scan, which is the
    same stream as scalar draws; the generator is then rewound and advanced
    by exactly the coins used, so it ends where the scalar scan leaves it.
    """
    if count <= 2:
        return np.arange(count)
    state = rng.bit_generator.state
    coins = rng.integers(0, 2, size=count - 2).tolist()
    kept = [0]
    used = 0
    for j in range(1, count - 1):
        if j - kept[-1] == max_gap:
            kept.append(j)
        else:
            if coins[used]:
                kept.append(j)
            used += 1
    kept.append(count - 1)
    rng.bit_generator.state = state
    rng.integers(0, 2, size=used)
    return np.array(kept)


def degrade_raster(raster: RectRaster, m: int, n: int, seed: int = 0) -> RectRaster:
    """Punch seeded random NODATA holes under gap constraints.

    Whole rows are eliminated first (top and bottom rows always survive,
    consecutive surviving rows at most ``m`` apart), then cells within each
    surviving row (first and last cells always survive, gaps at most ``n``).
    ``m = n = 1`` therefore returns the raster unchanged.

    The holes are a fixed function of ``seed``: one ``PCG64(seed)``
    generator gives one int64 ``integers(0, 2)`` coin per unforced index
    (1 keeps it), first for the row scan, then for each kept row's columns,
    rows top to bottom.  Any faster draw must keep that stream.
    """
    if int(m) != m or int(n) != n or m < 1 or n < 1:
        raise ConstraintInfeasibleError("gap multipliers m and n must be integers >= 1")
    m, n = int(m), int(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    values = raster.values.copy()
    kept_rows = _thin_indices(raster.nrows, m, rng)
    row_mask = np.zeros(raster.nrows, dtype=bool)
    row_mask[kept_rows] = True
    values[~row_mask, :] = raster.nodata
    for row in kept_rows:
        kept_cols = _thin_indices(raster.ncols, n, rng)
        col_mask = np.zeros(raster.ncols, dtype=bool)
        col_mask[kept_cols] = True
        values[row, ~col_mask] = raster.nodata
    return RectRaster(
        values=values,
        xll=raster.xll,
        yll=raster.yll,
        cellsize=raster.cellsize,
        nodata=raster.nodata,
    )


def recovery_errors(basis: RectRaster, degraded: RectRaster, method: str = ENO) -> dict:
    """How well the degraded raster's extension refills the eliminated knots.

    Returns RMSE and max-abs error over the eliminated knots only; by
    exactness the retained knots contribute nothing for ENO.  Zero holes
    returns zeros.
    """
    same = (
        basis.values.shape == degraded.values.shape
        and basis.xll == degraded.xll
        and basis.yll == degraded.yll
        and basis.cellsize == degraded.cellsize
    )
    if not same:
        raise GeometryMismatchError("basis and degraded rasters differ in geometry")
    eliminated = (basis.values != basis.nodata) & (degraded.values == degraded.nodata)
    count = int(eliminated.sum())
    if count == 0:
        return {"rmse": 0.0, "max_abs": 0.0, "eliminated": 0}
    ext = make_extension(degraded, method)
    rows = np.nonzero(eliminated.any(axis=1))[0]
    lines = ext.eval_line(basis.x_centers(), basis.y_center(rows))
    sq_sum = 0.0
    max_abs = 0.0
    for row, line in zip(rows, lines):
        mask = eliminated[row]
        diff = np.abs(line[mask] - basis.values[row][mask])
        sq_sum += float((diff * diff).sum())
        max_abs = max(max_abs, float(diff.max()))
    return {
        "rmse": float(np.sqrt(sq_sum / count)),
        "max_abs": max_abs,
        "eliminated": count,
    }


def write_report(path, entries: dict) -> None:
    """Write a flat ``key = value`` text report plus a JSON twin.

    The JSON file sits next to the text report with ``.json`` appended and
    holds the same mapping.
    """
    path = str(path)
    lines = [f"{key} = {value}" for key, value in entries.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2, sort_keys=False)
        fh.write("\n")
