"""The two workloads and the chain of hexport commands each one times.

Every workload runs the same chain on its own input, through the program's
public entry points: ``hexport port``, ``hexport errors``, ``hexport
degrade`` at every DEGRADE_LEVELS level, ``recovery_errors`` on each
degraded raster, and ``hexport flow``.  The sizes differ so that a different
module dominates each workload:

* ``sr1_port``: SR1 ported at 600 cells across; line evaluation, hex text
  I/O and the port command's default thread pool dominate.  With only 41
  knot rows, building the extension is almost free.
* ``dem_recover_route``: a seeded 120 x 120 terrain, degraded and recovered
  with ``eno`` at every level and with ``of`` at level 3, where per-interval
  stencil selection dominates; then its hex port, with seeded NODATA holes,
  is routed for 60 steps, where the router dominates and the holes make the
  topology's least-squares loop do real work.

Set-up (``setup_s``) is timed apart from the chain: it builds, from the
parsed input, the state the workload's queries reuse.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
import inputs
from hexport import cli, grid_io, hydroflow, interp2d, metrics, porting
from hexport.metrics import DEGRADE_LEVELS

H0 = 0.1
MANNING = 0.03
# Degradation level also recovered with `of`; the dem_recover_route set-up
# extends its raster.
OF_LEVEL = 3


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "sr1" or "terrain"; also picks the set-up and the one-off check
    size: int  # raster cells per side
    cells_across: int  # hex cells per row of the timed port
    quad: int  # quadrature subsamples per cell side for `errors`
    degrade_seeds: int  # seeded degradations per level
    flow_cells_across: int  # hex cells per row of the routed terrain
    holes: float  # share of routed cells made NODATA
    flow_steps: int
    setup_batch: int = 1  # builds per timed set-up span (keeps it >= 0.1 s)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sr1_port", "sr1", inputs.SR1_SIZE, 600, 8, 4, 200, 0.0, 15,
                 setup_batch=8),
        Workload("dem_recover_route", "terrain", 120, 300, 1, 1, 240, 0.05, 60),
    )
}

# The same chains at toy sizes, for the benchmark's own tests.
FAST = {
    "sr1_port": dict(cells_across=60, quad=2, degrade_seeds=1, flow_cells_across=30,
                     flow_steps=2, setup_batch=1),
    "dem_recover_route": dict(size=24, cells_across=20, flow_cells_across=40, flow_steps=5),
}


def get(name: str, fast: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **FAST[name]) if fast else w


class Chain:
    """One workload's inputs, its timed chain, set-up probe and checks.

    ``attempted``/``failed`` count program operations (CLI commands and
    library calls).  A failed operation is counted and the chain goes on;
    a wrong or missing output raises :class:`checks.CheckError`.

    ``harness`` wraps the benchmark's own reads inside a round; a traced run
    sets it so that those reads count in no module figure.
    """

    OUTPUTS = ("port.hex", "report.txt.json", "depth.hex")

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = int(seed)
        self.dir = workdir
        self.attempted = 0
        self.failed = 0
        self.port_bytes = None
        self.last_stdout = ""
        self.harness = contextlib.nullcontext
        self.prepare()

    def path(self, name):
        return os.path.join(self.dir, name)

    def read(self, name):
        """Text of an output file; a missing one is a failed check."""
        try:
            with open(self.path(name), encoding="utf-8") as fh:
                return fh.read()
        except FileNotFoundError:
            raise checks.CheckError(f"{name} was not written") from None

    # -- operations -------------------------------------------------------

    def cli(self, *argv):
        """Run one hexport command in-process; returns its seconds."""
        self.attempted += 1
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        seconds = time.perf_counter() - start
        self.last_stdout = out.getvalue()
        if code != 0:
            self.failed += 1
        return seconds

    def call(self, fn, *args):
        """Run one library call; returns (result or None, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # counted as a failed operation, the run goes on
            self.failed += 1
            result = None
        return result, time.perf_counter() - start

    # -- inputs -------------------------------------------------------------

    def prepare(self):
        """Write the inputs, make the routed terrain and run one-off checks."""
        w = self.w
        if w.source == "sr1":
            xmin, ymin, xmax, ymax = inputs.SR1_BOUNDS
            self.cli("synth", "--runge", inputs.SR1_RUNGE, "--cols", w.size, "--rows", w.size,
                     f"--bounds={xmin},{ymin},{xmax},{ymax}", "--out", self.path("raster.asc"))
            self.runge = inputs.SR1_RUNGE
        else:
            raster = inputs.terrain_raster(w.size, self.seed)
            with open(self.path("raster.asc"), "w", encoding="utf-8") as fh:
                fh.write(grid_io.write_esri_ascii(raster))
            self.runge = None
        with open(self.path("raster.asc"), encoding="utf-8") as fh:
            self.basis = grid_io.parse_esri_ascii(fh.read())
        self.degrades = [
            (level, m, n, self.seed * 1000 + 10 * level + k, self.path(f"d{level}_{k}.asc"))
            for level, (m, n) in sorted(DEGRADE_LEVELS.items())
            for k in range(w.degrade_seeds)
        ]
        # The routed terrain: ported once, untimed, then holed.
        self.cli("port", "--in", self.path("raster.asc"), "--out", self.path("flow.hex"),
                 "--method", "eno", "--cells-across", w.flow_cells_across)
        with open(self.path("flow.hex"), encoding="utf-8") as fh:
            self.terrain_text = fh.read()
        self.terrain = grid_io.read_hex_raster(self.terrain_text)
        if w.holes > 0:
            self.terrain = inputs.punch_holes(self.terrain, w.holes, self.seed)
            self.terrain_text = grid_io.write_hex_raster(self.terrain)
            with open(self.path("flow.hex"), "w", encoding="utf-8") as fh:
                fh.write(self.terrain_text)
        if w.source == "terrain":
            m, n = DEGRADE_LEVELS[OF_LEVEL]
            self.setup_raster = metrics.degrade_raster(self.basis, m, n, seed=self.seed)

    def check_bicubic(self):
        """Exactness on a seeded bicubic with the workload's geometry."""
        poly = inputs.Bicubic(self.basis.bounds, self.seed)
        cubic = inputs.bicubic_raster(self.basis.bounds, self.basis.ncols, poly)
        if self.w.source == "sr1":
            with open(self.path("cubic.asc"), "w", encoding="utf-8") as fh:
                fh.write(grid_io.write_esri_ascii(cubic))
            self.cli("port", "--in", self.path("cubic.asc"), "--out", self.path("cubic.hex"),
                     "--method", "eno", "--cells-across", self.w.cells_across)
            ported = grid_io.read_hex_raster(self.read("cubic.hex"))
            checks.hex_header(ported, cubic.bounds, self.w.cells_across)
            checks.reproduces_polynomial(ported, poly)
        else:
            m, n = DEGRADE_LEVELS[max(DEGRADE_LEVELS)]
            degraded = metrics.degrade_raster(cubic, m, n, seed=self.seed)
            for method in ("eno", "of"):
                result, _ = self.call(metrics.recovery_errors, cubic, degraded, method)
                checks.exact_recovery(result)

    # -- the timed chain ------------------------------------------------------

    def round(self):
        """Run the chain once; returns {metric: seconds} and its outputs."""
        w = self.w
        t = {}
        # A command that fails must not leave the last round's file behind.
        for path in [self.path(n) for n in self.OUTPUTS] + [d[-1] for d in self.degrades]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        start = time.perf_counter()
        t["port_s"] = self.cli("port", "--in", self.path("raster.asc"),
                               "--out", self.path("port.hex"), "--method", "eno",
                               "--cells-across", w.cells_across)
        runge = ["--runge", self.runge] if self.runge is not None else []
        t["errors_s"] = self.cli("errors", "--raster", self.path("raster.asc"),
                                 "--hex", self.path("port.hex"), *runge, "--quad", w.quad,
                                 "--report", self.path("report.txt"))
        # Each raster is recovered right after it is degraded, so that both
        # sums spread over seconds of the chain: the host's CPU speed shifts
        # on that scale, and a sample taken in one short burst catches one
        # speed only.
        t["degrade_s"] = t["recover_s"] = 0.0
        recovered = []
        for level, m, n, seed, path in self.degrades:
            t["degrade_s"] += self.cli("degrade", "--in", self.path("raster.asc"),
                                       "--out", path, "--m", m, "--n", n, "--seed", seed)
            degraded = None
            with self.harness(), contextlib.suppress(FileNotFoundError):
                with open(path, encoding="utf-8") as fh:
                    degraded = grid_io.parse_esri_ascii(fh.read())
            for method in ("eno", "of") if level == OF_LEVEL else ("eno",):
                result, seconds = self.call(metrics.recovery_errors, self.basis, degraded, method)
                t["recover_s"] += seconds
                recovered.append((degraded, m, n, result))
        t["flow_s"] = self.cli("flow", "--hex", self.path("flow.hex"), "--h0", H0,
                               "--manning", MANNING, "--steps", w.flow_steps,
                               "--boundary", "open", "--out-depth", self.path("depth.hex"))
        t["wall_s"] = time.perf_counter() - start
        return t, {"recovered": recovered, "flow_stdout": self.last_stdout}

    def setup_probe(self):
        """Seconds to build the state the workload's queries reuse."""
        w = self.w

        def build():
            if w.source == "sr1":
                for _ in range(w.setup_batch):
                    interp2d.Extension2D(interp2d.build_row_like_grid(self.basis), "eno")
                return
            for method in ("eno", "of"):
                interp2d.Extension2D(interp2d.build_row_like_grid(self.setup_raster), method)
            terrain = grid_io.read_hex_raster(self.terrain_text)
            grid = terrain.to_grid()
            dt = hydroflow.suggest_dt(grid, terrain.values, H0, MANNING, nodata=terrain.nodata)
            hydroflow.FlowState(grid=grid, z=terrain.values, h=np.full(terrain.values.shape, H0),
                                manning_n=MANNING, dt=dt, boundary="open",
                                nodata=terrain.nodata).topology()

        _, seconds = self.call(build)
        return seconds / w.setup_batch

    def replay(self, span):
        """Make each CLI command's module calls directly, with library defaults.

        ``span(name)`` opens a tracing span; the traced run subtracts these
        from the CLI spans to get each command's self time.
        """
        w = self.w

        def read(name):
            with open(self.path(name), encoding="utf-8") as fh:
                return fh.read()

        def write(name, text):
            with open(self.path(name), "w", encoding="utf-8") as fh:
                fh.write(text)

        with span("replay.port"):
            raster = grid_io.parse_esri_ascii(read("raster.asc"))
            config = porting.PortingConfig(method="eno", cells_across=w.cells_across)
            write("replay.hex", grid_io.write_hex_raster(porting.port(raster, config)))
        with span("replay.errors"):
            raster = grid_io.parse_esri_ascii(read("raster.asc"))
            field = metrics.RungeField(self.runge) if self.runge is not None else None
            report = metrics.extension_l1_errors(raster, method="eno", field=field, quad=w.quad)
            hexraster = grid_io.read_hex_raster(read("port.hex"))
            report.update(metrics.l1_errors(raster, hexraster, field=field, quad=w.quad))
            metrics.write_report(self.path("replay.txt"), report)
        for _, m, n, seed, _ in self.degrades:
            with span("replay.degrade"):
                raster = grid_io.parse_esri_ascii(read("raster.asc"))
                degraded = metrics.degrade_raster(raster, m, n, seed=seed)
                write("replay.asc", grid_io.write_esri_ascii(degraded))
        with span("replay.flow"):
            terrain = grid_io.read_hex_raster(read("flow.hex"))
            grid = terrain.to_grid()
            dt = hydroflow.suggest_dt(grid, terrain.values, H0, MANNING, nodata=terrain.nodata)
            state = hydroflow.FlowState(grid=grid, z=terrain.values,
                                        h=np.full((grid.nrows, grid.ncols), H0),
                                        manning_n=MANNING, dt=dt, boundary="open",
                                        nodata=terrain.nodata)
            result = hydroflow.run(state, w.flow_steps)
            write("replay-depth.hex", grid_io.write_hex_raster(result.depth))

    # -- output checks ---------------------------------------------------------

    def check(self, outputs):
        """Check one round's outputs; raises checks.CheckError."""
        w = self.w
        text = self.read("port.hex")
        if self.port_bytes is None:
            checks.hex_header(grid_io.read_hex_raster(text), self.basis.bounds, w.cells_across)
            self.port_bytes = text
        elif text != self.port_bytes:
            raise checks.CheckError("port output differs between rounds")
        report = json.loads(self.read("report.txt.json"))
        checks.finite_errors(report)
        if self.runge is not None:
            checks.hex_tracks_field(report)
        for degraded, m, n, result in outputs["recovered"]:
            checks.gap_constraints(self.basis, degraded, m, n)
            checks.eliminated_count(result, self.basis, degraded)
        depth = grid_io.read_hex_raster(self.read("depth.hex"))
        checks.flow_ledger(parse_summary(outputs["flow_stdout"]), self.terrain, depth, H0)


def parse_summary(stdout: str) -> dict:
    """The ``key = value`` lines `hexport flow` prints, as numbers."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = float(value)
    return out
