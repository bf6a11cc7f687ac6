"""The square-to-hexagonal raster pipeline.

A port builds the knot grid from the square raster, sizes a hexagonal grid
over the raster's bounding box, and samples the chosen extension function at
every hexagon center.  Hexagon centers falling outside the knot hull use
the extension's own extrapolation rule, so the port is total; clipping to
the overlap region is a concern of the error metrics, not of porting.  The
piecewise-constant method is the exception: centers outside the raster get
the NODATA sentinel, as do centers over NODATA cells.

Sampling takes two batched line evaluations, one per row parity, since
alternate hexagon rows share their center abscissas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_io import HexRaster, RectRaster
from .hexgrid import cover_domain
from .interp1d import ENO, OF
from .interp2d import make_extension

METHODS = (ENO, OF, "crs", "id")


@dataclass(frozen=True)
class PortingConfig:
    """How to port: extension method plus exactly one sizing parameter."""

    method: str
    cells_across: int | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if (self.cells_across is None) == (self.radius is None):
            raise ValueError("give exactly one of cells_across or radius")


def port(raster: RectRaster, config: PortingConfig) -> HexRaster:
    """Port a square raster to a hexagonal raster.

    Deterministic: the same raster and config produce byte-identical output.
    Single-threaded: two batched ``eval_line`` calls, one per row parity.
    """
    grid = cover_domain(
        raster.bounds, cells_across=config.cells_across, radius=config.radius
    )
    ext = make_extension(raster, config.method)
    fill = {"fill": raster.nodata} if config.method == "id" else {}
    ys = np.array([grid.row_y(j) for j in range(grid.nrows)])
    values = np.empty((grid.nrows, grid.ncols), dtype=np.float64)
    for parity in range(min(2, grid.nrows)):
        values[parity::2] = ext.eval_line(grid.row_centers_x(parity), ys[parity::2], **fill)
    return HexRaster(
        values=values, x0=grid.x0, y0=grid.y0, r=grid.r, nodata=raster.nodata
    )
