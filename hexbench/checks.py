"""Output checks of the benchmark.

Each check compares what the program wrote against a computation the
benchmark makes itself, or against a property the method must have, and
raises :class:`CheckError` when the output is wrong.  The checks read
parsed outputs only, so the benchmark's tests can feed them perturbed
copies and see each one reject.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import SQRT3, hex_centers


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _has_result(result):
    _require(result is not None, "no result: the call raised")


def _rel_close(a, b, tol, what):
    scale = max(abs(a), abs(b), 1e-300)
    _require(abs(a - b) <= tol * scale, f"{what}: {a!r} vs {b!r} (rel tol {tol})")


def hex_header(hexraster, bounds, cells_across):
    """The hex header follows the cover-domain sizing rule for N cells across.

    r = width / (N sqrt 3); rows are added until M * 1.5 r + r / 2 covers the
    height; the first centre sits half a cell in from the left edge and r
    below the top edge.
    """
    xmin, ymin, xmax, ymax = bounds
    width, height = xmax - xmin, ymax - ymin
    r = width / (cells_across * SQRT3)
    nrows = 1
    while nrows * 1.5 * r + r / 2.0 < height * (1.0 - 1e-12):
        nrows += 1
    _require(hexraster.ncols == cells_across,
             f"ncols {hexraster.ncols} != cells across {cells_across}")
    _require(hexraster.nrows == nrows, f"nrows {hexraster.nrows} != {nrows}")
    _rel_close(hexraster.r, r, 1e-12, "radius")
    _rel_close(hexraster.x0, xmin + r * SQRT3 / 2.0, 1e-12, "xcenter0")
    _rel_close(hexraster.y0, ymax - r, 1e-12, "ycenter0")


def reproduces_polynomial(hexraster, poly, tol=1e-9):
    """Every hex value equals the polynomial at the cell centre."""
    x, y = hex_centers(hexraster)
    want = poly(x, y)
    _require(not (hexraster.values == hexraster.nodata).any(), "port left NODATA cells")
    err = np.abs(hexraster.values - want).max() / np.abs(want).max()
    _require(err < tol, f"bicubic port relative error {err:.3e} >= {tol}")


def hex_tracks_field(report):
    """Criterion 04: the hex port is closer to the field than to the raster."""
    _require(report["eps_ha"] < report["eps_hr"],
             f"eps_ha {report['eps_ha']!r} not below eps_hr {report['eps_hr']!r}")


def finite_errors(report):
    """Every eps_* of an error report is a finite, nonnegative number."""
    eps = {k: v for k, v in report.items() if k.startswith("eps_")}
    _require({"eps_er", "eps_hr"} <= eps.keys(), f"report lacks eps_er/eps_hr: {sorted(eps)}")
    for key, value in eps.items():
        _require(math.isfinite(value) and value >= 0.0, f"{key} = {value!r}")


def _kept_gaps(kept, limit, what):
    idx = np.flatnonzero(kept)
    _require(idx.size >= 2 and idx[0] == 0 and idx[-1] == kept.size - 1,
             f"{what}: ends not kept")
    gap = int(np.diff(idx).max())
    _require(gap <= limit, f"{what}: gap {gap} > {limit}")


def gap_constraints(basis, degraded, m, n):
    """Criterion 06: surviving rows at most m apart, cells at most n apart.

    Also: the geometry is unchanged, and every surviving cell keeps the
    basis value exactly.
    """
    _require(degraded is not None, "no degraded raster was written")
    _require(degraded.values.shape == basis.values.shape
             and (degraded.xll, degraded.yll, degraded.cellsize)
             == (basis.xll, basis.yll, basis.cellsize), "geometry changed")
    present = degraded.values != degraded.nodata
    _require(np.array_equal(degraded.values[present], basis.values[present]),
             "a surviving cell changed value")
    rows = present.any(axis=1)
    _kept_gaps(rows, m, "rows")
    for row in np.flatnonzero(rows):
        _kept_gaps(present[row], n, f"row {row}")


def eliminated_count(result, basis, degraded):
    """The reported eliminated count is the number of knots removed."""
    _has_result(result)
    removed = int(((basis.values != basis.nodata) & (degraded.values == degraded.nodata)).sum())
    _require(result["eliminated"] == removed,
             f"eliminated {result['eliminated']} != removed {removed}")
    _require(math.isfinite(result["rmse"]) and math.isfinite(result["max_abs"]),
             "recovery errors not finite")


def exact_recovery(result, tol=1e-9):
    """A cubic basis is refilled exactly (both methods reproduce cubics)."""
    _has_result(result)
    _require(result["eliminated"] > 0, "nothing was eliminated")
    _require(result["rmse"] < tol, f"recovery rmse {result['rmse']:.3e} >= {tol}")


def flow_ledger(summary, terrain, depth, h0, tol=1e-9):
    """Volume bookkeeping and the shape of the depth output of one flow run.

    The initial volume is h0 x cell area x the non-NODATA cells; it equals
    the final volume plus the outflow; depths are finite and nonnegative;
    NODATA sits exactly on the terrain's holes.
    """
    missing = {"volume_initial", "volume_final", "outflow_volume"} - summary.keys()
    _require(not missing, f"flow summary lacks {sorted(missing)}")
    holes = terrain.values == terrain.nodata
    area = 1.5 * SQRT3 * terrain.r * terrain.r
    _rel_close(summary["volume_initial"], h0 * area * int((~holes).sum()), tol,
               "initial volume")
    _rel_close(summary["volume_initial"],
               summary["volume_final"] + summary["outflow_volume"], tol, "volume ledger")
    _require(depth.values.shape == terrain.values.shape, "depth raster shape")
    dry = depth.values == depth.nodata
    _require(np.array_equal(dry, holes), "NODATA cells differ from the terrain's holes")
    wet = depth.values[~dry]
    _require(np.isfinite(wet).all() and (wet >= 0.0).all(), "negative or non-finite depth")
