"""Seeded inputs of the benchmark: rasters, polynomials and NODATA holes.

Every maker is a pure function of its arguments, so the same seed gives the
same inputs byte for byte.  The program under test receives only what these
functions produce, written as files in its own formats.
"""

from __future__ import annotations

import math

import numpy as np

from hexport.grid_io import HexRaster, RectRaster

# SR1 of the paper: the Runge bump a / ((1+x^2)(1+y^2)), a = 1, sampled on a
# 41 x 41 raster over [-20, 20]^2 (an odd count puts a knot at the origin).
SR1_BOUNDS = (-20.0, -20.0, 20.0, 20.0)
SR1_SIZE = 41
SR1_RUNGE = 1.0

SQRT3 = math.sqrt(3.0)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream) so inputs do not alias."""
    return np.random.Generator(np.random.PCG64([int(seed), int(stream)]))


def terrain_raster(size: int, seed: int, cellsize: float = 10.0) -> RectRaster:
    """A size x size DEM: a seeded cubic trend plus a dozen Gaussian hills.

    Heights stay well above zero (about 20 to 250), so relative errors are
    meaningful and no value can collide with the NODATA sentinel.
    """
    rng = rng_for(seed, 1)
    u = (np.arange(size) + 0.5) / size
    U, V = np.meshgrid(u, u[::-1])
    c = rng.uniform(-1.0, 1.0, 9)
    z = (
        100.0
        + 40.0 * (c[0] * U + c[1] * V)
        + 30.0 * (c[2] * U * U + c[3] * U * V + c[4] * V * V)
        + 20.0 * (c[5] * U**3 + c[6] * U * U * V + c[7] * U * V * V + c[8] * V**3)
    )
    for _ in range(12):
        cx, cy = rng.uniform(0.1, 0.9, 2)
        height = rng.uniform(5.0, 25.0)
        width = rng.uniform(0.04, 0.12)
        z += height * np.exp(-((U - cx) ** 2 + (V - cy) ** 2) / (2.0 * width * width))
    return RectRaster(values=z, xll=0.0, yll=0.0, cellsize=cellsize)


class Bicubic:
    """p(x, y) = sum c_ij ((x - cx)/s)^i ((y - cy)/s)^j, i, j <= 3, seeded c.

    Scaled to the raster's half-width so every term is O(1) on the domain;
    ENO and OF reproduce such a polynomial exactly up to rounding.
    """

    def __init__(self, bounds, seed: int):
        xmin, ymin, xmax, ymax = bounds
        self.cx = 0.5 * (xmin + xmax)
        self.cy = 0.5 * (ymin + ymax)
        self.s = 0.5 * max(xmax - xmin, ymax - ymin)
        self.c = rng_for(seed, 2).uniform(-1.0, 1.0, (4, 4))

    def __call__(self, x, y):
        u = (np.asarray(x, dtype=np.float64) - self.cx) / self.s
        v = (np.asarray(y, dtype=np.float64) - self.cy) / self.s
        out = np.zeros(np.broadcast(u, v).shape)
        for i in range(4):
            for j in range(4):
                out = out + self.c[i, j] * u**i * v**j
        return out


def bicubic_raster(bounds, size: int, poly: Bicubic) -> RectRaster:
    """A size x size raster over ``bounds`` sampling ``poly`` at cell centers."""
    xmin, ymin, xmax, _ = bounds
    cs = (xmax - xmin) / size
    xs = xmin + (np.arange(size) + 0.5) * cs
    ys = ymin + (size - np.arange(size) - 0.5) * cs
    return RectRaster(values=poly(xs[None, :], ys[:, None]), xll=xmin, yll=ymin, cellsize=cs)


def hex_centers(hexraster: HexRaster):
    """(X, Y) of every cell center by the hexagonal format's own formula."""
    w = hexraster.r * SQRT3
    cols = np.arange(hexraster.ncols)[None, :]
    rows = np.arange(hexraster.nrows)[:, None]
    x = hexraster.x0 + cols * w - (rows % 2) * (w / 2.0)
    y = hexraster.y0 - 1.5 * hexraster.r * rows + 0.0 * cols
    return x, y


def punch_holes(hexraster: HexRaster, share: float, seed: int) -> HexRaster:
    """Copy of ``hexraster`` with seeded discs of NODATA covering ~``share``.

    Six discs of random centre and relative radius grow together until they
    cover the requested share of cells, so the holes have long irregular
    rims where the router must fit planes by least squares.
    """
    rng = rng_for(seed, 3)
    x, y = hex_centers(hexraster)
    xmin, xmax = x.min(), x.max()
    ymin, ymax = y.min(), y.max()
    span = min(xmax - xmin, ymax - ymin)
    cx = rng.uniform(xmin + 0.15 * span, xmax - 0.15 * span, 6)
    cy = rng.uniform(ymin + 0.15 * span, ymax - 0.15 * span, 6)
    rel = rng.uniform(0.5, 1.5, 6)
    # Growth needed before each cell falls inside some disc.
    reach = (np.hypot(x[..., None] - cx, y[..., None] - cy) / rel).min(axis=-1)
    count = max(1, int(round(share * x.size)))
    holes = reach <= np.partition(reach.ravel(), count - 1)[count - 1]
    values = np.where(holes, hexraster.nodata, hexraster.values)
    return HexRaster(values=values, x0=hexraster.x0, y0=hexraster.y0, r=hexraster.r,
                     nodata=hexraster.nodata)
