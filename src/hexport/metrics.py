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
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintInfeasibleError,
    EmptyOverlapError,
    GeometryMismatchError,
)
from .grid_io import HexRaster, RectRaster
from .hexgrid import locate_many
from .interp1d import ENO
from .interp2d import make_extension

# Points per ``eval_line`` call of extension_l1_errors' sweep: SR1 at quad 8
# (107,584 samples) takes one call, and a call's lines stay a few MB.
_SWEEP_POINTS = 1 << 17

# Points per ``locate_many`` call of l1_errors.  The lookup's temporaries,
# about 100 B a point, then stay in cache and are not held for every sample.
_LOOKUP_POINTS = 1 << 14

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


def box_misfit(bounds, ncols: int, nrows: int):
    """Why ``nrows`` rows of ``ncols`` square cells across ``bounds`` (xmin, ymin,
    xmax, ymax) miss its height by more than a relative 1e-9; None if not."""
    xmin, ymin, xmax, ymax = (float(v) for v in bounds)
    height = nrows * ((xmax - xmin) / ncols)
    if not math.isclose(ymax - ymin, height, rel_tol=1e-9):
        return (f"{nrows} rows of square cells, {ncols} across the width {xmax - xmin!r}, "
                f"are {height!r} high, not the height {ymax - ymin!r}")


def runge_raster(bounds, ncols: int, nrows: int, a: float) -> RectRaster:
    """Square raster whose cells fill ``bounds``; each holds the Runge field at its center."""
    xmin, ymin, xmax, ymax = (float(v) for v in bounds)
    if ncols < 1 or nrows < 1:
        raise ValueError("ncols and nrows must be positive")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("bounds must have positive extent")
    if misfit := box_misfit(bounds, ncols, nrows):
        raise ValueError(f"bounds: {misfit}")
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
    if quad < 1:
        raise ValueError("quad must be at least 1")
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
    xs, ys = _sample_points(raster, quad)
    gr = np.repeat(np.repeat(raster.values, quad, axis=0), quad, axis=1)
    grid = hexraster.to_grid()
    inside = np.empty(gr.shape, dtype=bool)
    gh = np.empty(gr.shape)
    step = max(_LOOKUP_POINTS // xs.size, 1)  # sample rows per lookup
    for b in range(0, ys.size, step):
        band = slice(b, b + step)
        cols, rows, inside[band] = locate_many(grid, xs[None, :], ys[band, None])
        gh[band] = np.where(inside[band], hexraster.values[rows, cols], np.nan)
    mask = inside & (gr != raster.nodata) & (gh != hexraster.nodata)
    if not mask.any():
        raise EmptyOverlapError("rasters share no usable samples")
    grm = gr[mask]
    ghm = gh[mask]
    with np.errstate(over="ignore", invalid="ignore"):  # _relative checks the sums
        gamma = np.abs(grm).sum()
        sums = {"eps_hr": np.abs(grm - ghm).sum()}
        if field is not None:
            X, Y = np.broadcast_arrays(xs[None, :], ys[:, None])  # views, not copies
            gm = field(X[mask], Y[mask])
            sums["eps_ha"] = np.abs(gm - ghm).sum()
            sums["eps_ra"] = np.abs(gm - grm).sum()
    return _relative(sums, gamma, "reference raster is identically zero on the overlap")


def _relative(sums: dict, gamma, zero: str) -> dict:
    """Each error sum of ``sums`` over the normaliser ``gamma``, as a float; an
    EmptyOverlapError(``zero``) if ``gamma`` is 0, a ValueError unless it and
    every quotient, so every sum, are finite."""
    if gamma == 0.0:
        raise EmptyOverlapError(zero)
    with np.errstate(over="ignore", invalid="ignore"):
        out = {key: float(total / gamma) for key, total in sums.items()}
    for key, value in out.items():
        if not (math.isfinite(value) and math.isfinite(gamma)):
            raise ValueError(f"{key} is not finite: error sum {float(sums[key])!r} over "
                             f"normaliser {float(gamma)!r}")
    return out


def extension_l1_errors(
    raster: RectRaster, method: str = ENO, field=None, quad: int = 8
) -> dict:
    """Relative L1 errors of the extension function over the raster domain.

    ``eps_er`` compares the extension to the piecewise-constant raster;
    ``eps_ea`` (when a field is given) compares it to the analytic field.
    Both divide by the integral of |raster|.

    Whole raster rows go to ``eval_line`` in blocks of at most
    ``_SWEEP_POINTS`` points (one row if a row holds more).  Each raster
    row's quadrature lines are reduced together, one contiguous row of
    valid samples per line, which numpy sums pairwise exactly as it sums
    the line alone; the line sums then join the totals line by line in
    raster order, so the result does not depend on the blocks.
    """
    xs, ys = _sample_points(raster, quad)
    ext = make_extension(raster, method)
    sum_er = sum_ea = gamma = 0.0
    rows = (raster.values != raster.nodata).any(axis=1).nonzero()[0]
    step = max(_SWEEP_POINTS // (quad * xs.size), 1)  # raster rows per call
    row_ys = ys.reshape(raster.nrows, quad)
    for block in (rows[b : b + step] for b in range(0, rows.size, step)):
        lines = ext.eval_line(xs, row_ys[block].ravel()).reshape(block.size, quad, xs.size)
        with np.errstate(over="ignore", invalid="ignore"):  # _relative checks the sums
            for row, row_lines in zip(block, lines):
                gr = np.repeat(raster.values[row], quad)
                valid = gr != raster.nodata
                # compress keeps the rows contiguous, as a row-wise sum
                # must be to add pairwise like a 1-D one; a mask index
                # would lay the columns out contiguously instead.
                gt, gr = row_lines.compress(valid, axis=-1), gr[valid]
                row_gamma = np.abs(gr).sum()
                er = np.abs(gt - gr).sum(axis=-1)
                if field is not None:
                    ea = np.abs(gt - field(xs[valid], row_ys[row, :, None])).sum(axis=-1)
                for k in range(quad):
                    gamma += row_gamma
                    sum_er += er[k]
                    if field is not None:
                        sum_ea += ea[k]
    sums = {"eps_er": sum_er}
    if field is not None:
        sums["eps_ea"] = sum_ea
    return _relative(sums, gamma, "raster has no usable samples")


# Coins drawn per generator call.  Any block size gives the same stream.  From
# about 1024 coins up a draw costs the same per coin, and a 41 x 41 raster,
# which reads 700-850 coins, then draws few that it never reads.
_COIN_BLOCK = 1024


def _coin_stream(rng):
    """``rng``'s int64 ``integers(0, 2)`` coins, drawn in blocks, yielded in order."""
    while True:
        yield from rng.integers(0, 2, size=_COIN_BLOCK).tolist()


def _thin_indices(count: int, max_gap: int, coins) -> np.ndarray:
    """Kept indices of a line scan: ends always kept, gaps at most max_gap.

    Walks left to right; each interior index is dropped with probability 1/2
    unless keeping it is forced to honor the gap bound.  Each unforced index
    reads the next coin of the iterator ``coins`` (1 keeps it), and forced
    ones read none, so consecutive scans share one stream.
    """
    if count <= 2:
        return np.arange(count)
    kept = [0]
    last = 0
    for j in range(1, count - 1):
        if j - last == max_gap or next(coins):
            kept.append(j)
            last = j
    kept.append(count - 1)
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
    rows top to bottom.  The coins are drawn in blocks and read in order,
    each scan going on where the last one stopped; a batched draw is the
    same stream as scalar draws, so nothing is rewound.
    """
    if int(m) != m or int(n) != n or m < 1 or n < 1:
        raise ConstraintInfeasibleError("gap multipliers m and n must be integers >= 1")
    m, n = int(m), int(n)
    coins = _coin_stream(np.random.Generator(np.random.PCG64(seed)))
    values = np.full_like(raster.values, raster.nodata)
    for row in _thin_indices(raster.nrows, m, coins):
        cols = _thin_indices(raster.ncols, n, coins)
        values[row, cols] = raster.values[row, cols]
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
