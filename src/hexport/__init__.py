"""hexport: port square rasters to hexagonal rasters and route water on them.

The pipeline builds an everywhere-defined piecewise-bicubic extension of the
square raster data (with oscillation-avoiding or outlier-skipping stencil
selection), samples it at hexagon centers, quantifies the porting error, and
runs a hexagonal cellular-automaton water routing on the result.
"""

from .errors import HexportError
from .grid_io import (
    HexRaster,
    RectRaster,
    parse_esri_ascii,
    read_hex_raster,
    render,
    write_esri_ascii,
    write_hex_raster,
)
from .hexgrid import HexGrid, cover_domain
from .hydroflow import FlowState, run, step
from .interp1d import ENO, OF, Extension1D, Knots1D, Stencil1D
from .interp2d import CrsExtension, Extension2D, IdExtension, RowLikeGrid, build_row_like_grid
from .metrics import (
    DEGRADE_LEVELS,
    RungeField,
    degrade_raster,
    extension_l1_errors,
    l1_errors,
    recovery_errors,
    runge_raster,
)
from .porting import PortingConfig, port

__version__ = "0.1.0"

__all__ = [
    "ENO",
    "OF",
    "DEGRADE_LEVELS",
    "CrsExtension",
    "Extension1D",
    "Extension2D",
    "FlowState",
    "HexGrid",
    "HexRaster",
    "HexportError",
    "IdExtension",
    "Knots1D",
    "PortingConfig",
    "RectRaster",
    "RowLikeGrid",
    "RungeField",
    "Stencil1D",
    "build_row_like_grid",
    "cover_domain",
    "degrade_raster",
    "extension_l1_errors",
    "l1_errors",
    "parse_esri_ascii",
    "port",
    "read_hex_raster",
    "recovery_errors",
    "render",
    "run",
    "runge_raster",
    "step",
    "write_esri_ascii",
    "write_hex_raster",
    "__version__",
]
