"""Spans around the calls into hexport's modules, recorded from outside.

:class:`Tracer` replaces the traced functions and methods with wrappers
that record one span per call (name, start, end, parent, run id, thread and
a few counts taken from the arguments or the result) and restores the
originals on exit.  Spans are kept in memory and written out when the run
ends.  Nothing inside ``src/`` is changed: a name imported into several
hexport modules is replaced in every one of them.

Spans opened on worker threads (the port command's thread pool) have no
parent, because the span that caused them lives on another thread; they
still carry the phase the run was in.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time

import numpy as np


def _values(raster):
    return int(raster.values.size)


def _hexport_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "hexport"]


def traced_targets():
    """(span name, owner, attribute, counts) of every traced entry point.

    ``counts(args, kwargs, result)`` returns the counts stored on the span.
    """
    from hexport import cli, grid_io, hexgrid, hydroflow, interp1d, interp2d, metrics, porting

    def grid_counts(a, k, g):
        return {"knot_rows": g.nrows, "short_rows": g.short_rows, "dropped_rows": g.dropped_rows}

    def quad_samples(a, k, r):
        raster, quad = a[0], k.get("quad", a[3] if len(a) > 3 else 8)
        return {"quad_samples": raster.ncols * raster.nrows * quad * quad}

    def topo_counts(a, k, r):
        topo = a[0]
        full = (topo.neigh >= 0).all(axis=1)
        return {"irregular_cells": int((topo.valid & ~full).sum())}

    def run_counts(a, k, r):
        cells = int(a[0].valid_mask().sum())
        return {"cells": cells, "capping_events": int(r.summary["capping_events"])}

    return [
        ("cli.main", cli, "main", lambda a, k, r: {"command": (a[0] if a else k["argv"])[0]}),
        ("grid_io.parse_esri", grid_io, "parse_esri_ascii", lambda a, k, r: {"values": _values(r)}),
        ("grid_io.read_hex", grid_io, "read_hex_raster", lambda a, k, r: {"values": _values(r)}),
        ("grid_io.write_esri", grid_io, "write_esri_ascii", lambda a, k, r: {"values": _values(a[0])}),
        ("grid_io.write_hex", grid_io, "write_hex_raster", lambda a, k, r: {"values": _values(a[0])}),
        ("interp1d.build", interp1d.Extension1D, "__init__",
         lambda a, k, r: {"method": a[2] if len(a) > 2 else k["method"],
                          "intervals": max(len(a[1]) - 1, 0)}),
        ("interp2d.row_grid", interp2d, "build_row_like_grid", grid_counts),
        ("interp2d.extension", interp2d.Extension2D, "__init__", None),
        ("interp2d.eval_line", interp2d.Extension2D, "eval_line",
         lambda a, k, r: {"points": int(np.size(a[1]))}),
        ("hexgrid.cover_domain", hexgrid, "cover_domain", None),
        ("hexgrid.locate_many", hexgrid, "locate_many",
         lambda a, k, r: {"points": int(np.size(a[1]))}),
        ("porting.port", porting, "port", lambda a, k, r: {"cells": _values(r)}),
        ("metrics.extension_l1", metrics, "extension_l1_errors", quad_samples),
        ("metrics.l1_errors", metrics, "l1_errors", quad_samples),
        ("metrics.degrade", metrics, "degrade_raster", None),
        ("metrics.recovery", metrics, "recovery_errors",
         lambda a, k, r: {"eliminated": int(r["eliminated"])}),
        ("hydroflow.suggest_dt", hydroflow, "suggest_dt", None),
        ("hydroflow.topology", hydroflow._Topology, "__init__", topo_counts),
        ("hydroflow.step", hydroflow, "step", None),
        ("hydroflow.run", hydroflow, "run", run_counts),
    ]


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.phase = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def phase_of(self, name):
        """Mark the spans opened in the body with phase ``name``."""
        outer, self.phase = self.phase, name
        try:
            yield
        finally:
            self.phase = outer

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the body; yields the span's record."""
        stack = self._stack()
        rec = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "run": self.run_id,
            "phase": self.phase,
            "thread": threading.get_ident(),
        }
        stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def __enter__(self):
        modules = _hexport_modules()
        for name, owner, attr, counts in traced_targets():
            orig = getattr(owner, attr)
            wrapper = self._wrapper(name, orig, counts)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, orig, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    def _patch(self, owner, attr, orig, wrapper):
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrapper(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if counts is not None:
                rec.update(counts(args, kwargs, result))
            return result

        return wrapper


def _dur(span):
    return span["end"] - span["start"]


def layer_metrics(spans):
    """Per-layer times and counts of one traced round, from its spans.

    Module figures come from the ``chain`` phase, which ran the workload's
    commands through the CLI; the benchmark's own reads between commands
    are in the ``harness`` phase and count nowhere.  ``porting.port_s`` and the ``cli.*_self_s``
    figures use the ``replay`` phase, which made the same module calls
    directly with library defaults: a command's self time is its CLI time
    minus the time of its replayed module calls.
    """
    chain = [s for s in spans if s["phase"] == "chain"]

    def named(name, pool=chain):
        return [s for s in pool if s["name"] == name]

    def total(name, pool=chain):
        return float(sum(_dur(s) for s in named(name, pool)))

    def count(name, key, pool=chain):
        return int(sum(s.get(key, 0) for s in named(name, pool)))

    builds = named("interp1d.build")
    steps = [_dur(s) for s in named("hydroflow.step")]
    runs = named("hydroflow.run")
    cells = sum(s["cells"] for s in runs)
    capped = sum(s["capping_events"] for s in runs)
    out = {
        "grid_io.write_hex_s": total("grid_io.write_hex"),
        "grid_io.read_hex_s": total("grid_io.read_hex"),
        "grid_io.parse_esri_s": total("grid_io.parse_esri"),
        "grid_io.write_esri_s": total("grid_io.write_esri"),
        "grid_io.values_read": count("grid_io.parse_esri", "values")
        + count("grid_io.read_hex", "values"),
        "grid_io.values_written": count("grid_io.write_esri", "values")
        + count("grid_io.write_hex", "values"),
        "interp1d.eno_build_s": float(sum(_dur(s) for s in builds if s["method"] == "eno")),
        "interp1d.of_build_s": float(sum(_dur(s) for s in builds if s["method"] == "of")),
        "interp1d.intervals": int(sum(s["intervals"] for s in builds)),
        "interp2d.row_grid_s": total("interp2d.row_grid"),
        "interp2d.knot_rows": count("interp2d.row_grid", "knot_rows"),
        "interp2d.short_rows": count("interp2d.row_grid", "short_rows"),
        "interp2d.dropped_rows": count("interp2d.row_grid", "dropped_rows"),
        "interp2d.eval_line_s": total("interp2d.eval_line"),
        "interp2d.eval_lines": len(named("interp2d.eval_line")),
        "interp2d.eval_points": count("interp2d.eval_line", "points"),
        "hexgrid.cover_domain_s": total("hexgrid.cover_domain"),
        "hexgrid.locate_many_s": total("hexgrid.locate_many"),
        "hexgrid.located_points": count("hexgrid.locate_many", "points"),
        "porting.port_s": total("porting.port", [s for s in spans if s["phase"] == "replay"]),
        "porting.hex_cells": count("porting.port", "cells"),
        "metrics.extension_l1_s": total("metrics.extension_l1"),
        "metrics.l1_errors_s": total("metrics.l1_errors"),
        "metrics.quad_samples": count("metrics.extension_l1", "quad_samples")
        + count("metrics.l1_errors", "quad_samples"),
        "metrics.degrade_s": total("metrics.degrade"),
        "metrics.recovery_s": total("metrics.recovery"),
        "metrics.eliminated_knots": count("metrics.recovery", "eliminated"),
        "hydroflow.suggest_dt_s": total("hydroflow.suggest_dt"),
        "hydroflow.topology_s": total("hydroflow.topology"),
        "hydroflow.irregular_cells": count("hydroflow.topology", "irregular_cells"),
        "hydroflow.step_s": float(np.median(steps)) if steps else 0.0,
        "hydroflow.steps": len(steps),
        "hydroflow.cells": int(cells),
        "hydroflow.capping_events": int(capped),
        "hydroflow.capped_share": capped / (len(steps) * cells) if steps and cells else 0.0,
    }
    replay = [s for s in spans if s["phase"] == "replay"]
    for command in ("port", "errors", "degrade", "flow"):
        cli_time = sum(_dur(s) for s in named("cli.main") if s["command"] == command)
        out[f"cli.{command}_self_s"] = float(cli_time - total(f"replay.{command}", replay))
    return out
