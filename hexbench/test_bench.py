"""Tests of the benchmark itself: fast runs, and every check rejecting bad output.

    python3 -m pytest hexbench/test_bench.py -q

Run from the root of a hexport checkout.  The fast runs use toy sizes and
finish in seconds; each output check is fed a correct output (it passes)
and deliberately perturbed copies (it must reject every one).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from hexport import cli, grid_io, hydroflow, porting  # noqa: E402
from hexport.metrics import degrade_raster, recovery_errors  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ["sr1_port", "dem_recover_route"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "hexbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# -- the command ---------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace), "--fast")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "hexbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "sr1_port", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- inputs ---------------------------------------------------------------------


def test_inputs_follow_the_seed():
    a, b = inputs.terrain_raster(16, 3), inputs.terrain_raster(16, 3)
    assert grid_io.write_esri_ascii(a) == grid_io.write_esri_ascii(b)
    assert not np.array_equal(a.values, inputs.terrain_raster(16, 4).values)
    hexr = porting.port(a, porting.PortingConfig(method="eno", cells_across=40))
    holed = inputs.punch_holes(hexr, 0.05, 3)
    share = (holed.values == holed.nodata).mean()
    assert 0.04 < share < 0.06
    assert np.array_equal(holed.values, inputs.punch_holes(hexr, 0.05, 3).values)


# -- each check passes good output and rejects perturbed copies -----------------


def perturbed(obj, **changes):
    """Copy of a raster with attributes replaced."""
    fields = {k: getattr(obj, k) for k in ("values", "nodata")}
    fields.update({k: getattr(obj, k) for k in ("x0", "y0", "r") if hasattr(obj, "x0")})
    fields.update({k: getattr(obj, k) for k in ("xll", "yll", "cellsize") if hasattr(obj, "xll")})
    fields["values"] = fields["values"].copy()
    fields.update(changes)
    return type(obj)(**fields)


def rejects(check, *args):
    with pytest.raises(checks.CheckError):
        check(*args)


@pytest.fixture(scope="module")
def cubic_port():
    poly = inputs.Bicubic(inputs.SR1_BOUNDS, 5)
    raster = inputs.bicubic_raster(inputs.SR1_BOUNDS, inputs.SR1_SIZE, poly)
    hexr = porting.port(raster, porting.PortingConfig(method="eno", cells_across=50))
    return poly, hexr


def test_hex_header(cubic_port):
    _, hexr = cubic_port
    checks.hex_header(hexr, inputs.SR1_BOUNDS, 50)
    rejects(checks.hex_header, hexr, inputs.SR1_BOUNDS, 51)
    rejects(checks.hex_header, perturbed(hexr, r=hexr.r * (1 + 1e-9)), inputs.SR1_BOUNDS, 50)
    rejects(checks.hex_header, perturbed(hexr, x0=hexr.x0 + 1e-6), inputs.SR1_BOUNDS, 50)
    rejects(checks.hex_header, perturbed(hexr, y0=hexr.y0 - 1e-6), inputs.SR1_BOUNDS, 50)
    rejects(checks.hex_header, perturbed(hexr, values=hexr.values[:-1]), inputs.SR1_BOUNDS, 50)


def test_reproduces_polynomial(cubic_port):
    poly, hexr = cubic_port
    checks.reproduces_polynomial(hexr, poly)
    bad = perturbed(hexr)
    bad.values[3, 7] *= 1 + 1e-7
    rejects(checks.reproduces_polynomial, bad, poly)
    bad = perturbed(hexr)
    bad.values[0, 0] = bad.nodata
    rejects(checks.reproduces_polynomial, bad, poly)


def test_error_reports():
    good = {"eps_er": 0.01, "eps_hr": 0.02, "eps_ha": 0.01, "eps_ra": 0.02}
    checks.finite_errors(good)
    checks.hex_tracks_field(good)
    rejects(checks.hex_tracks_field, {**good, "eps_ha": 0.02})
    rejects(checks.finite_errors, {**good, "eps_hr": float("nan")})
    rejects(checks.finite_errors, {**good, "eps_er": -1.0})
    rejects(checks.finite_errors, {"eps_ha": 0.01})


@pytest.fixture(scope="module")
def degraded_pair():
    basis = inputs.terrain_raster(30, 2)
    return basis, degrade_raster(basis, 4, 3, seed=11)


def test_gap_constraints(degraded_pair):
    basis, degraded = degraded_pair
    checks.gap_constraints(basis, degraded, 4, 3)
    rejects(checks.gap_constraints, basis, degraded, 4, 2)
    rejects(checks.gap_constraints, basis, degraded, 2, 3)
    kept_rows = np.flatnonzero((degraded.values != degraded.nodata).any(axis=1))
    bad = perturbed(degraded)
    bad.values[kept_rows[1], 1:5] = bad.nodata  # a four-cell gap in one row
    rejects(checks.gap_constraints, basis, bad, 4, 3)
    bad = perturbed(degraded)
    bad.values[0, :] = bad.nodata  # top row eliminated
    rejects(checks.gap_constraints, basis, bad, 4, 3)
    bad = perturbed(degraded)
    bad.values[0, 0] += 1.0  # a surviving cell changed
    rejects(checks.gap_constraints, basis, bad, 4, 3)
    rejects(checks.gap_constraints, basis, perturbed(degraded, cellsize=11.0), 4, 3)
    rejects(checks.gap_constraints, basis, None, 4, 3)  # the degrade command failed


def test_eliminated_count(degraded_pair):
    basis, degraded = degraded_pair
    result = recovery_errors(basis, degraded, "eno")
    checks.eliminated_count(result, basis, degraded)
    rejects(checks.eliminated_count, {**result, "eliminated": result["eliminated"] + 1},
            basis, degraded)
    rejects(checks.eliminated_count, {**result, "rmse": float("nan")}, basis, degraded)
    rejects(checks.eliminated_count, None, basis, degraded)  # the call raised


@pytest.mark.parametrize("method", ["eno", "of"])
def test_exact_recovery(method):
    poly = inputs.Bicubic(inputs.SR1_BOUNDS, 3)
    cubic = inputs.bicubic_raster(inputs.SR1_BOUNDS, 25, poly)
    result = recovery_errors(cubic, degrade_raster(cubic, 5, 5, seed=3), method)
    checks.exact_recovery(result)
    rejects(checks.exact_recovery, {**result, "rmse": 1e-6})
    rejects(checks.exact_recovery, {**result, "eliminated": 0})
    rejects(checks.exact_recovery, None)


@pytest.fixture(scope="module")
def flow_run():
    raster = inputs.terrain_raster(16, 4)
    terrain = inputs.punch_holes(
        porting.port(raster, porting.PortingConfig(method="eno", cells_across=30)), 0.05, 4)
    grid = terrain.to_grid()
    state = hydroflow.FlowState(grid=grid, z=terrain.values, h=np.full(terrain.values.shape, 0.1),
                                manning_n=0.03, dt=0.5, boundary="open", nodata=terrain.nodata)
    result = hydroflow.run(state, 20)
    return result.summary, terrain, result.depth


def test_flow_ledger(flow_run):
    summary, terrain, depth = flow_run
    assert summary["outflow_volume"] > 0.0
    checks.flow_ledger(summary, terrain, depth, 0.1)
    rejects(checks.flow_ledger, summary, terrain, depth, 0.1 * (1 + 1e-6))
    rejects(checks.flow_ledger, {**summary, "volume_final": summary["volume_final"] * 1.001},
            terrain, depth, 0.1)
    rejects(checks.flow_ledger, {**summary, "outflow_volume": 0.0}, terrain, depth, 0.1)
    rejects(checks.flow_ledger, {}, terrain, depth, 0.1)  # the command printed nothing
    wet = np.argwhere(depth.values != depth.nodata)
    bad = perturbed(depth)
    bad.values[tuple(wet[0])] = -1e-3
    rejects(checks.flow_ledger, summary, terrain, bad, 0.1)
    bad = perturbed(depth)
    bad.values[tuple(wet[0])] = bad.nodata
    rejects(checks.flow_ledger, summary, terrain, bad, 0.1)
    bad = perturbed(depth)
    bad.values[tuple(np.argwhere(depth.values == depth.nodata)[0])] = 0.1
    rejects(checks.flow_ledger, summary, terrain, bad, 0.1)


def test_chain_checks_reject_perturbed_files(tmp_path):
    """The per-round checks read the files the commands wrote."""
    chain = workloads.Chain(workloads.get("sr1_port", fast=True), 3, str(tmp_path))
    chain.check_bicubic()
    _, outputs = chain.round()
    chain.check(outputs)

    def tamper(name, old, new):
        path = tmp_path / name
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(checks.CheckError):
            chain.check(outputs)
        path.write_text(text)
        chain.check(outputs)

    lines = (tmp_path / "port.hex").read_text().splitlines()
    tamper("port.hex", lines[7], lines[7] + " ")  # same values, other bytes
    report = json.loads((tmp_path / "report.txt.json").read_text())
    tamper("report.txt.json", repr(report["eps_ha"]), repr(report["eps_hr"] * 2))
    depth = (tmp_path / "depth.hex").read_text().splitlines()
    first = depth[6].split()[0]
    tamper("depth.hex", depth[6], depth[6].replace(first, "-0.5", 1))
    (tmp_path / "depth.hex").unlink()
    with pytest.raises(checks.CheckError):
        chain.check(outputs)


def test_failed_commands_are_counted_and_fail_the_checks(tmp_path):
    """Failed operations are counted, the round ends and its check rejects it."""
    chain = workloads.Chain(workloads.get("dem_recover_route", fast=True), 3, str(tmp_path))
    _, outputs = chain.round()
    chain.check(outputs)
    assert chain.failed == 0
    (tmp_path / "raster.asc").unlink()  # port, errors, degrade and recovery now fail
    attempted = chain.attempted
    _, outputs = chain.round()
    assert chain.failed == chain.attempted - attempted - 1  # all but flow
    with pytest.raises(checks.CheckError):
        chain.check(outputs)


def test_harness_reads_count_in_no_module_figure(tmp_path):
    chain = workloads.Chain(workloads.get("dem_recover_route", fast=True), 3, str(tmp_path))
    tracer = Tracer("t")
    chain.harness = lambda: tracer.phase_of("harness")
    with tracer, tracer.phase_of("chain"):
        chain.round()
    harness = [s for s in tracer.spans if s["phase"] == "harness"]
    assert {s["name"] for s in harness} == {"grid_io.parse_esri"}
    assert len(harness) == len(chain.degrades)


def test_tracer_restores_the_program():
    before = (cli.port, porting.port, grid_io.read_hex_raster, hydroflow._Topology.__init__)
    with Tracer("t") as tracer:
        tracer.phase = "chain"
        assert cli.port is porting.port and porting.port is not before[1]
        grid_io.read_hex_raster(grid_io.write_hex_raster(
            porting.port(inputs.terrain_raster(8, 1),
                         porting.PortingConfig(method="eno", cells_across=8))))
    assert (cli.port, porting.port, grid_io.read_hex_raster,
            hydroflow._Topology.__init__) == before
    names = {s["name"] for s in tracer.spans}
    assert {"porting.port", "grid_io.read_hex", "grid_io.write_hex",
            "interp1d.build", "interp2d.eval_line"} <= names
    assert all(s["end"] >= s["start"] and s["run"] == "t" for s in tracer.spans)
