"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from collections import deque

import numpy as np
import pytest

from hexport.grid_io import RectRaster
from hexport.hexgrid import HexGrid
from hexport.hydroflow import FlowState, fit_plane, run, step, suggest_dt
from hexport.interp1d import ENO, OF, Extension1D, Knots1D, eno_select
from hexport.interp2d import Extension2D, RowLikeGrid, build_row_like_grid
from hexport.metrics import (
    DEGRADE_LEVELS,
    RungeField,
    degrade_raster,
    extension_l1_errors,
    l1_errors,
    recovery_errors,
    runge_raster,
)
from hexport.porting import PortingConfig, port

from conftest import hex_centers


def check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {criterion:02d}] {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


_sr1_results = {}


def sr1_port_errors():
    """Timed ENO ports of SR1 at 200/300/600 plus their L1 errors (cached)."""
    if not _sr1_results:
        sr1 = runge_raster((-20, -20, 20, 20), 41, 41, 1.0)
        field = RungeField(1.0)
        t0 = time.perf_counter()
        for n in (200, 300, 600):
            hexed = port(sr1, PortingConfig(method="eno", cells_across=n))
            _sr1_results[n] = l1_errors(sr1, hexed, field=field, quad=8)
        _sr1_results["elapsed"] = time.perf_counter() - t0
    return _sr1_results


def test_criterion_01_low_resolution_reconstruction_table():
    # Knots on the 11-per-axis lattice spanning [-14,14] inclusive (ten
    # intervals per axis); a 10x10-cell center lattice has no knot at the
    # origin, misses the central bump entirely, and cannot produce errors
    # of this magnitude in any integration variant.
    t0 = time.perf_counter()
    raster = runge_raster((-15.4, -15.4, 15.4, 15.4), 11, 11, 10.0)
    field = RungeField(10.0)
    eno = extension_l1_errors(raster, "eno", field=field, quad=8)
    crs = extension_l1_errors(raster, "crs", field=field, quad=8)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(eno["eps_ea"] - 0.447) <= 0.03
        and abs(eno["eps_er"] - 0.5965) <= 0.03
        and abs(crs["eps_ea"] - 0.428) <= 0.03
        and abs(crs["eps_er"] - 0.5675) <= 0.03
        and elapsed < 10.0
    )
    check(
        1,
        ok,
        f"ENO ea={eno['eps_ea']:.4f} (0.447±0.03) er={eno['eps_er']:.4f} (0.5965±0.03); "
        f"CRS ea={crs['eps_ea']:.4f} (0.428±0.03) er={crs['eps_er']:.4f} (0.5675±0.03); "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_02_bicubic_reproduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(200):
        coeff = rng.uniform(-1.0, 1.0, (4, 4))

        def cubic(x, y):
            acc = 0.0
            for p in range(4):
                for q in range(4):
                    acc = acc + coeff[p, q] * x**p * y**q
            return acc

        m = int(rng.integers(4, 8))
        ys = np.cumsum(rng.uniform(0.4, 1.2, m))
        rows = []
        for y in ys:
            nj = int(rng.integers(4, 10))
            xs = np.cumsum(rng.uniform(0.3, 1.5, nj)) + rng.uniform(-0.5, 0.5)
            rows.append(Knots1D(xs, cubic(xs, y)))
        grid = RowLikeGrid.from_rows(ys=ys, rows=tuple(rows))
        exts = {method: Extension2D(grid, method) for method in (ENO, OF)}
        xlo = min(r.xs[0] for r in rows)
        xhi = max(r.xs[-1] for r in rows)
        px = rng.uniform(xlo, xhi, 100)
        py = rng.uniform(ys[0], ys[-1], 100)
        for method in (ENO, OF):
            ext = exts[method]
            for x, y in zip(px, py):
                want = cubic(float(x), float(y))
                got = ext(float(x), float(y))
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    check(2, ok, f"worst relative error {worst:.2e} < 1e-9 over 200 cubics; {elapsed:.1f}s < 30s")


def test_criterion_03_eno_knot_exactness():
    rng = np.random.default_rng(21)
    worst = 0.0
    bitwise = True
    for _ in range(20):
        ncols = int(rng.integers(5, 20))
        nrows = int(rng.integers(5, 20))
        vals = rng.uniform(-100.0, 100.0, (nrows, ncols))
        holes = rng.random((nrows, ncols)) < 0.1
        vals[holes] = -9999.0
        try:
            raster = RectRaster(values=vals, xll=float(rng.uniform(-5, 5)),
                                yll=float(rng.uniform(-5, 5)),
                                cellsize=float(rng.uniform(0.1, 10.0)))
            grid = build_row_like_grid(raster)
        except Exception:
            continue
        ext = Extension2D(grid, ENO)
        for j, row in enumerate(grid.rows):
            got = ext.eval_line(row.xs, float(grid.ys[j]))
            worst = max(worst, float(np.max(np.abs(got - row.fs))))
            bitwise = bitwise and np.array_equal(got, row.fs)
    ok = worst <= 1e-12
    check(3, ok, f"max |ext - knot| = {worst:.1e} <= 1e-12 (bitwise equal: {bitwise})")


def test_criterion_04_hex_tracks_field_not_raster():
    res = sr1_port_errors()
    parts = []
    ok = res["elapsed"] < 120.0
    for n in (200, 300, 600):
        e = res[n]
        ok = ok and e["eps_ha"] < e["eps_hr"]
        parts.append(f"N={n}: ha={e['eps_ha']:.4f} < hr={e['eps_hr']:.4f}")
    check(4, ok, "; ".join(parts) + f"; {res['elapsed']:.1f}s < 120s")


def test_criterion_05_error_plateau():
    res = sr1_port_errors()
    hr300 = res[300]["eps_hr"]
    hr600 = res[600]["eps_hr"]
    ok = hr600 >= 0.5 * hr300
    check(5, ok, f"eps_hr(600)={hr600:.4f} >= 0.5*eps_hr(300)={0.5 * hr300:.4f}")


def test_criterion_06_degradation_generator():
    basis = runge_raster((-20, -20, 20, 20), 60, 60, 1.0)
    violations = 0
    fractions_33 = []
    for m, n in DEGRADE_LEVELS.values():
        for seed in range(100):
            d = degrade_raster(basis, m, n, seed=seed)
            kept = d.values != d.nodata
            rows = np.nonzero(kept.any(axis=1))[0]
            if rows[0] != 0 or rows[-1] != 59 or (np.diff(rows) > m).any():
                violations += 1
            for row in rows:
                cols = np.nonzero(kept[row])[0]
                if cols[0] != 0 or cols[-1] != 59 or (np.diff(cols) > n).any():
                    violations += 1
            if (m, n) == (3, 3):
                fractions_33.append(kept.mean())
    frac = float(np.mean(fractions_33))
    ok = violations == 0 and 0.15 <= frac <= 0.40
    check(
        6,
        ok,
        f"constraint violations={violations} over 500 runs; "
        f"mean retained fraction (3,3) = {frac:.3f} in [0.15, 0.40]",
    )


def test_criterion_07_recovery_trend():
    basis = runge_raster((-20, -20, 20, 20), 100, 100, 1.0)
    means = []
    for alpha in range(1, 6):
        m, n = DEGRADE_LEVELS[alpha]
        vals = [
            recovery_errors(basis, degrade_raster(basis, m, n, seed=seed))["rmse"]
            for seed in range(20)
        ]
        means.append(float(np.mean(vals)))
    monotone = all(means[i + 1] >= means[i] for i in range(4))

    xs = basis.x_centers()
    ys = np.array([basis.y_center(r) for r in range(basis.nrows)])
    X, Y = np.meshgrid(xs, ys)
    cubic_vals = 0.002 * X**3 - 0.01 * X * Y + 0.001 * Y**3 + 0.5 * X + 2.0
    cubic = RectRaster(values=cubic_vals, xll=-20, yll=-20, cellsize=0.4)
    cubic_worst = 0.0
    for alpha in range(1, 6):
        m, n = DEGRADE_LEVELS[alpha]
        d = degrade_raster(cubic, m, n, seed=alpha)
        cubic_worst = max(cubic_worst, recovery_errors(cubic, d)["rmse"])
    ok = monotone and cubic_worst < 1e-9
    check(
        7,
        ok,
        f"mean RMSE by level = {[f'{v:.4f}' for v in means]} nondecreasing={monotone}; "
        f"cubic-basis worst RMSE = {cubic_worst:.1e} < 1e-9",
    )


def test_criterion_08_selection_oracle():
    nodes, weights = np.polynomial.legendre.leggauss(5)

    def quad_best(xs, fs, k):
        cands = []
        if k - 1 >= 0 and k + 2 <= len(xs) - 1:
            cands.append((k - 1, k + 2))
        if k - 2 >= 0:
            cands.append((k - 2, k - 1))
        if k + 3 <= len(xs) - 1:
            cands.append((k + 2, k + 3))
        u, v = xs[k], xs[k + 1]
        t = 0.5 * (v - u) * nodes + 0.5 * (u + v)
        best = None
        best_val = None
        for p, q in cands:
            idx = [k, k + 1, p, q]
            vand = np.vander(xs[idx], 4, increasing=True)
            coef = np.linalg.solve(vand, fs[idx])
            pv = coef[0] + coef[1] * t + coef[2] * t**2 + coef[3] * t**3
            qv = fs[k] + (t - xs[k]) * (fs[k + 1] - fs[k]) / (xs[k + 1] - xs[k])
            val = 0.5 * (v - u) * float(np.sum(weights * (pv - qv) ** 2))
            if best_val is None or val < best_val:
                best_val = val
                best = (p, q)
        return best

    rng = np.random.default_rng(22)
    mismatches = 0
    intervals = 0
    for _ in range(1000):
        n = int(rng.integers(6, 11))
        xs = np.cumsum(rng.uniform(0.2, 2.0, n))
        fs = rng.uniform(-5.0, 5.0, n)
        knots = Knots1D(xs, fs)
        for k in range(n - 1):
            st = eno_select(knots, k)
            if (st.idx[2], st.idx[3]) != quad_best(xs, fs, k):
                mismatches += 1
            intervals += 1
    ok = mismatches == 0
    check(8, ok, f"{intervals} intervals over 1000 datasets, argmin mismatches = {mismatches}")


def test_criterion_09_plane_fit_oracle():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        r = float(rng.uniform(0.1, 50.0))
        grid = HexGrid(ncols=5, nrows=5, r=r, x0=0.0, y0=0.0)
        psi = rng.uniform(-10.0, 10.0, (5, 5))
        state = FlowState(grid=grid, z=psi, h=np.zeros((5, 5)), manning_n=0.03, dt=1.0)
        a, b = fit_plane(state, (2, 2))
        X, Y = hex_centers(grid)
        pts = [(X[2, 2], Y[2, 2], psi[2, 2])]
        for nb in grid.neighbors(2, 2):
            c, rw = nb.cell
            pts.append((X[rw, c], Y[rw, c], psi[rw, c]))
        pts = np.asarray(pts)
        design = np.column_stack(
            [np.ones(7), pts[:, 0] - pts[0, 0], pts[:, 1] - pts[0, 1]]
        )
        coef, *_ = np.linalg.lstsq(design, pts[:, 2], rcond=None)
        scale = max(1.0, abs(coef[1]), abs(coef[2]))
        worst = max(worst, abs(a - coef[1]) / scale, abs(b - coef[2]) / scale)

    grid = HexGrid(ncols=7, nrows=7, r=1.0, x0=0.0, y0=0.0)
    X, _ = hex_centers(grid)
    state = FlowState(grid=grid, z=X, h=np.zeros((7, 7)), manning_n=0.03, dt=1.0)
    a, b = fit_plane(state, (3, 3))
    unit_ok = abs(a - 1.0) <= 1e-12 and abs(b) <= 1e-12
    ok = worst <= 1e-12 and unit_ok
    check(
        9,
        ok,
        f"worst |closed-form - lstsq| = {worst:.1e} <= 1e-12 over 1000 neighborhoods; "
        f"unit eastward tilt a={a!r}",
    )


def test_criterion_10_water_volume_conservation():
    t0 = time.perf_counter()
    grid = HexGrid(ncols=200, nrows=200, r=1.0, x0=0.0, y0=0.0)
    X, Y = hex_centers(grid)
    bowl = 1e-4 * ((X - X.mean()) ** 2 + (Y - Y.mean()) ** 2)
    dt = suggest_dt(grid, bowl, 0.1, 0.05)
    state = FlowState(
        grid=grid, z=bowl, h=np.full((200, 200), 0.1), manning_n=0.05, dt=dt,
        boundary="closed",
    )
    v0 = state.total_volume()
    for _ in range(1000):
        state = step(state)
    drift = abs(state.total_volume() - v0) / v0
    elapsed = time.perf_counter() - t0

    ogrid = HexGrid(ncols=60, nrows=60, r=1.0, x0=0.0, y0=0.0)
    oX, oY = hex_centers(ogrid)
    oz = 0.05 * oX + 0.02 * oY
    ostate = FlowState(
        grid=ogrid, z=oz, h=np.full((60, 60), 0.1), manning_n=0.05,
        dt=suggest_dt(ogrid, oz, 0.1, 0.05), boundary="open",
    )
    ov0 = ostate.total_volume()
    for _ in range(300):
        ostate = step(ostate)
    balance = abs(ov0 - (ostate.total_volume() + ostate.outflow_volume)) / ov0
    ok = drift < 1e-9 and balance < 1e-9 and elapsed < 60.0
    check(
        10,
        ok,
        f"closed drift {drift:.1e} < 1e-9 over 1000 steps ({elapsed:.1f}s < 60s); "
        f"open ledger imbalance {balance:.1e} < 1e-9 "
        f"(outflow {ostate.outflow_volume:.2f})",
    )


def test_criterion_11_outlier_filtering_beats_exact_interpolation():
    pooled = {"eno": [], "of": []}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xs = np.linspace(-1.0, 1.0, 41)
        true = np.sin(np.pi * xs)
        bad = rng.choice(np.arange(2, 39), size=4, replace=False)
        corrupted = true.copy()
        corrupted[bad] = 0.0
        knots = Knots1D(xs, corrupted)
        for method in (ENO, OF):
            ext = Extension1D(knots, method)
            for j in bad:
                pooled[method].append(ext(float(xs[j])) - true[j])
    rmse_eno = float(np.sqrt(np.mean(np.square(pooled["eno"]))))
    rmse_of = float(np.sqrt(np.mean(np.square(pooled["of"]))))
    ok = rmse_of < rmse_eno
    check(11, ok, f"RMSE at corrupted knots: OF {rmse_of:.4f} < ENO {rmse_eno:.4f}")
