"""Command-line front end.

Subcommands: ``synth`` (generate a Runge-field raster), ``port`` (square to
hexagonal raster), ``degrade`` (punch seeded NODATA holes), ``errors``
(porting and extension error report), ``flow`` (water routing), ``render``
(SVG/PPM heatmaps).  Every subcommand is a pure function of its inputs and
flags, so re-running reproduces outputs byte for byte.  Exit codes: 0 on
success, 1 on data errors, 2 on flag errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import grid_io, hydroflow, metrics
from .errors import HexportError
from .porting import PortingConfig, port


def _checked(kind, what: str, ok):
    """An argparse ``type=``: parse with ``kind``, then reject values failing ``ok``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_POSITIVE_INT = _checked(int, "a positive integer", lambda v: v > 0)
_NONNEGATIVE_INT = _checked(int, "a nonnegative integer", lambda v: v >= 0)
_POSITIVE_FLOAT = _checked(float, "a positive finite number", lambda v: 0 < v < math.inf)
_NONNEGATIVE_FLOAT = _checked(float, "a nonnegative finite number", lambda v: 0 <= v < math.inf)
_FINITE_FLOAT = _checked(float, "a finite number", math.isfinite)


def _bounds(text: str):
    """An argparse ``type=`` for ``xmin,ymin,xmax,ymax``: a finite, nonempty box."""
    try:
        box = tuple(float(part) for part in text.split(","))
    except ValueError:
        box = ()
    if len(box) != 4 or not all(map(math.isfinite, box)) or not (
        box[0] < box[2] and box[1] < box[3]
    ):
        raise argparse.ArgumentTypeError(
            f"must be four finite numbers xmin,ymin,xmax,ymax with xmin < xmax "
            f"and ymin < ymax, got {text!r}"
        )
    return box


def _read(path: str, reader):
    with open(path, "r", encoding="utf-8") as fh:
        return reader(fh)


def _write(path: str, writer, raster):
    """Stream ``raster`` to ``path`` through ``writer`` (``grid_io.write_*``)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer(raster, fh)


def _cmd_synth(args) -> int:
    raster = metrics.runge_raster(args.bounds, args.cols, args.rows, args.runge)
    _write(args.out, grid_io.write_esri_ascii, raster)
    print(f"wrote {args.out}: {raster.ncols}x{raster.nrows} cells, runge a={args.runge}")
    return 0


def _cmd_port(args) -> int:
    raster = _read(getattr(args, "in"), grid_io.parse_esri_ascii)
    config = PortingConfig(
        method=args.method, cells_across=args.cells_across, radius=args.radius
    )
    result = port(raster, config)
    _write(args.out, grid_io.write_hex_raster, result)
    print(
        f"wrote {args.out}: {result.ncols}x{result.nrows} hex cells, "
        f"r={result.r!r}, method={args.method}"
    )
    return 0


def _cmd_degrade(args) -> int:
    raster = _read(getattr(args, "in"), grid_io.parse_esri_ascii)
    degraded = metrics.degrade_raster(raster, args.m, args.n, seed=args.seed)
    _write(args.out, grid_io.write_esri_ascii, degraded)
    kept = int((degraded.values != degraded.nodata).sum())
    print(f"wrote {args.out}: seed = {args.seed}, m = {args.m}, n = {args.n}")
    print(f"retained {kept} of {raster.values.size} cells")
    return 0


def _cmd_errors(args) -> int:
    raster = _read(args.raster, grid_io.parse_esri_ascii)
    field = metrics.RungeField(args.runge) if args.runge is not None else None
    report = {
        "raster": args.raster,
        "method": args.method,
        "quad": args.quad,
    }
    if args.runge is not None:
        report["runge_a"] = args.runge
    report.update(
        metrics.extension_l1_errors(raster, method=args.method, field=field, quad=args.quad)
    )
    if args.hex is not None:
        hexraster = _read(args.hex, grid_io.read_hex_raster)
        report["hex"] = args.hex
        report.update(metrics.l1_errors(raster, hexraster, field=field, quad=args.quad))
    metrics.write_report(args.report, report)
    for key, value in report.items():
        print(f"{key} = {value}")
    return 0


def _cmd_flow(args) -> int:
    hexraster = _read(args.hex, grid_io.read_hex_raster)
    grid = hexraster.to_grid()
    state = hydroflow.FlowState(
        grid=grid,
        z=hexraster.values,
        h=np.full((grid.nrows, grid.ncols), args.h0),
        manning_n=args.manning,
        dt=1.0 if args.dt is None else args.dt,
        boundary=args.boundary,
        nodata=hexraster.nodata,
    )
    if args.dt is None:
        state.dt = hydroflow.courant_dt(state)
    result = hydroflow.run(state, args.steps, mask_margin=args.mask_margin)
    if args.out_depth:
        _write(args.out_depth, grid_io.write_hex_raster, result.depth)
    if args.out_mask:
        _write(args.out_mask, grid_io.write_hex_raster, result.mask)
    print(f"dt = {state.dt!r}")
    for key, value in result.summary.items():
        print(f"{key} = {value}")
    return 0


def _image_format(path: str) -> str:
    """The render format named by an output path's suffix, in any letter case."""
    return path.lower().rpartition(".")[2]


def _cmd_render(args) -> int:
    raster = _read(getattr(args, "in"), grid_io.read_raster)
    fmt = _image_format(args.out)
    value_range = None
    if args.vmin is not None:
        value_range = (args.vmin, args.vmax)
    data = grid_io.render(
        raster,
        fmt,
        palette=args.palette,
        value_range=value_range,
        px_per_cell=args.px_per_cell,
    )
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {args.out} ({fmt}, {len(data)} bytes)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call.

    ``main`` reuses it, since ``parse_args`` keeps no state between calls;
    callers must not change it.  ``build_parser.__wrapped__()`` builds a
    fresh one.
    """
    parser = argparse.ArgumentParser(
        prog="hexport",
        description="Port square rasters to hexagonal rasters, measure the "
        "porting error, and route water on the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic Runge-field raster")
    p.add_argument("--runge", type=_FINITE_FLOAT, required=True, help="Runge parameter a")
    p.add_argument("--cols", type=_POSITIVE_INT, required=True, help="number of columns")
    p.add_argument("--rows", type=_POSITIVE_INT, required=True, help="number of rows")
    p.add_argument("--bounds", type=_bounds, required=True, help="xmin,ymin,xmax,ymax")
    p.add_argument("--out", required=True, help="output ESRI ASCII path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("port", help="port a square raster to a hexagonal raster")
    p.add_argument("--in", required=True, help="input ESRI ASCII raster")
    p.add_argument("--out", required=True, help="output hex raster path")
    p.add_argument(
        "--method", default="eno", choices=["eno", "of", "crs", "id"],
        help="extension method (default eno)",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cells-across", type=_POSITIVE_INT, help="hex cells per row")
    group.add_argument("--radius", type=_POSITIVE_FLOAT, help="hex circumradius")
    p.set_defaults(func=_cmd_port)

    p = sub.add_parser("degrade", help="punch seeded NODATA holes into a raster")
    p.add_argument("--in", required=True, help="input ESRI ASCII raster")
    p.add_argument("--out", required=True, help="output ESRI ASCII path")
    p.add_argument("--m", type=_POSITIVE_INT, default=3,
                   help="max row gap in cells (default 3)")
    p.add_argument("--n", type=_POSITIVE_INT, default=3,
                   help="max in-row gap in cells (default 3)")
    p.add_argument("--seed", type=_NONNEGATIVE_INT, default=0, help="RNG seed (default 0)")
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("errors", help="error report for a raster and optional hex port")
    p.add_argument("--raster", required=True, help="ESRI ASCII raster")
    p.add_argument("--hex", help="hex raster ported from it")
    p.add_argument("--method", default="eno", choices=["eno", "of", "crs", "id"])
    p.add_argument("--runge", type=_FINITE_FLOAT,
                   help="compare against the Runge field with this a")
    p.add_argument("--quad", type=_POSITIVE_INT, default=8,
                   help="quadrature subsamples per cell side")
    p.add_argument("--report", required=True, help="output report path (text + .json)")
    p.set_defaults(func=_cmd_errors)

    p = sub.add_parser("flow", help="route water on a hexagonal terrain raster")
    p.add_argument("--hex", required=True, help="hex terrain raster")
    p.add_argument("--h0", type=_NONNEGATIVE_FLOAT, default=0.1,
                   help="uniform initial depth (default 0.1)")
    p.add_argument("--dt", type=_POSITIVE_FLOAT,
                   help="time step (default: from a Courant-like bound)")
    p.add_argument("--manning", type=_POSITIVE_FLOAT, default=0.03, help="Manning coefficient")
    p.add_argument("--steps", type=_NONNEGATIVE_INT, required=True, help="number of steps")
    p.add_argument("--boundary", default="closed", choices=["open", "closed"])
    p.add_argument("--mask-margin", type=_NONNEGATIVE_FLOAT, default=0.0,
                   help="relative excess over the initial depth that marks a mask cell")
    p.add_argument("--out-depth", help="output hex raster of final depths")
    p.add_argument("--out-mask", help="output hex raster of the accumulation mask")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("render", help="render a raster to SVG or PPM")
    p.add_argument("--in", required=True, help="input raster (.asc or .hex)")
    p.add_argument("--out", required=True, help="output image (.svg or .ppm)")
    p.add_argument("--palette", default="viridis", choices=sorted(grid_io.PALETTES))
    p.add_argument("--min", dest="vmin", type=_FINITE_FLOAT, help="explicit range minimum")
    p.add_argument("--max", dest="vmax", type=_FINITE_FLOAT, help="explicit range maximum")
    p.add_argument("--px-per-cell", type=_POSITIVE_INT, default=8)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth" and (
                misfit := metrics.box_misfit(args.bounds, args.cols, args.rows)):
            parser.error(f"--bounds: {misfit}")
        if args.command == "render":
            if (args.vmin is None) != (args.vmax is None):
                parser.error("give both --min and --max or neither")
            if args.vmin is not None and not args.vmin < args.vmax:
                parser.error("--min must be less than --max")
            if _image_format(args.out) not in ("svg", "ppm"):
                parser.error(f"--out: must end in .svg or .ppm, got {args.out!r}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (HexportError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
