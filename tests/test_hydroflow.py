import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexport import hydroflow
from hexport.errors import NonFiniteStateError, OutOfRangeError
from hexport.hexgrid import FACE_NORMALS, OPPOSITE_FACE, SQRT3, HexGrid, neighbor_table
from hexport.hydroflow import (
    FlowState,
    _Topology,
    courant_dt,
    fit_plane,
    run,
    step,
    suggest_dt,
)

from conftest import hex_centers


def make_state(z, h=None, grid=None, **kw):
    z = np.asarray(z, dtype=np.float64)
    if grid is None:
        grid = HexGrid(ncols=z.shape[1], nrows=z.shape[0], r=1.0, x0=0.0, y0=0.0)
    if h is None:
        h = np.zeros_like(z)
    kw.setdefault("manning_n", 0.05)
    kw.setdefault("dt", 0.1)
    return FlowState(grid=grid, z=z, h=np.asarray(h, dtype=np.float64), **kw)


def probe(z, wet, depth=0.2, **kw):
    """One step from a state where only the cells in ``wet`` hold water."""
    z = np.asarray(z, dtype=np.float64)
    h = np.zeros_like(z)
    for col, row in wet:
        h[row, col] = depth
    before = make_state(z, h=h, **kw)
    after = step(before)
    assert after.capping_events == 0
    return before, after


def face_gains(before, after, cell):
    """Face -> volume gained by the neighbor behind that face of ``cell``."""
    gains = {}
    for nb in before.grid.neighbors(*cell):
        col, row = nb.cell
        gained = (after.h[row, col] - before.h[row, col]) * before.grid.cell_area
        if gained > 0.0:
            gains[nb.face] = gained
    return gains


def manning_face_volumes(state, cell, a, b):
    """dt * side * h * v * (tau . n) on every face with tau . n > 0."""
    col, row = cell
    h = state.h[row, col]
    g2 = a * a + b * b
    s = np.sqrt(g2 / (1.0 + g2))
    tau = np.array([-a, -b]) / np.sqrt(g2)
    v = h ** (2.0 / 3.0) * np.sqrt(s) / state.manning_n
    dots = FACE_NORMALS @ tau
    return {
        f + 1: state.dt * state.grid.side * h * v * dot
        for f, dot in enumerate(dots)
        if dot > 0.0
    }


def tilted(ax, by, n=7):
    """Plane ax * x + by * y sampled at hex centers of an n x n grid."""
    g = HexGrid(ncols=n, nrows=n, r=1.0, x0=0.0, y0=0.0)
    X, Y = hex_centers(g)
    return g, ax * X + by * Y


def lstsq_gradient(grid, psi, cell):
    """Generic least-squares plane fit over a cell and its neighbors."""
    col, row = cell
    X, Y = hex_centers(grid)
    pts = [(X[row, col], Y[row, col], psi[row, col])]
    for nb in grid.neighbors(col, row):
        c, r = nb.cell
        pts.append((X[r, c], Y[r, c], psi[r, c]))
    pts = np.asarray(pts)
    design = np.column_stack(
        [np.ones(len(pts)), pts[:, 0] - pts[0, 0], pts[:, 1] - pts[0, 1]]
    )
    coef, *_ = np.linalg.lstsq(design, pts[:, 2], rcond=None)
    return coef[1], coef[2]


class TestFitPlane:
    def test_flat_field(self):
        st = make_state(np.full((5, 5), 3.0))
        assert fit_plane(st, (2, 2)) == (0.0, 0.0)

    def test_eastward_tilt_unit_gradient(self):
        g = HexGrid(ncols=7, nrows=7, r=1.0, x0=0.0, y0=0.0)
        X, _ = hex_centers(g)
        st = make_state(X, grid=g)
        a, b = fit_plane(st, (3, 3))
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_northward_tilt_unit_gradient(self):
        g = HexGrid(ncols=7, nrows=7, r=1.0, x0=0.0, y0=0.0)
        _, Y = hex_centers(g)
        st = make_state(Y, grid=g)
        a, b = fit_plane(st, (3, 3))
        assert a == pytest.approx(0.0, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_interior_matches_lstsq_oracle(self):
        rng = np.random.default_rng(0)
        g = HexGrid(ncols=6, nrows=6, r=0.8, x0=0.0, y0=0.0)
        for _ in range(50):
            psi = rng.uniform(-10, 10, (6, 6))
            st = make_state(psi, grid=g)
            for cell in [(2, 2), (3, 3), (2, 3)]:
                a, b = fit_plane(st, cell)
                ao, bo = lstsq_gradient(g, psi, cell)
                assert a == pytest.approx(ao, rel=1e-10, abs=1e-10)
                assert b == pytest.approx(bo, rel=1e-10, abs=1e-10)

    def test_boundary_matches_lstsq_oracle(self):
        rng = np.random.default_rng(1)
        g = HexGrid(ncols=5, nrows=5, r=1.2, x0=0.0, y0=0.0)
        psi = rng.uniform(-3, 3, (5, 5))
        st = make_state(psi, grid=g)
        for cell in [(0, 0), (4, 0), (0, 4), (2, 0), (0, 2)]:
            a, b = fit_plane(st, cell)
            ao, bo = lstsq_gradient(g, psi, cell)
            assert a == pytest.approx(ao, rel=1e-9, abs=1e-9)
            assert b == pytest.approx(bo, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("cell", [(-1, 0), (5, 0), (0, 5)])
    def test_cell_outside_grid(self, cell):
        with pytest.raises(OutOfRangeError):
            fit_plane(make_state(np.zeros((5, 5))), cell)


class TestSlopeDescent:
    """Slope and descent direction, seen in what one wet cell sheds."""

    def test_flat(self):
        before, after = probe(np.full((5, 5), 3.0), [(2, 2)])
        assert fit_plane(before, (2, 2)) == (0.0, 0.0)
        assert np.array_equal(after.h, before.h)

    def test_unit_gradient(self):
        g, z = tilted(1.0, 0.0)
        before, after = probe(z, [(3, 3)], grid=g)
        expected = manning_face_volumes(before, (3, 3), 1.0, 0.0)
        assert set(expected) == {3, 4, 5}
        gains = face_gains(before, after, (3, 3))
        assert gains == pytest.approx(expected, rel=1e-12)
        # tau = (-1, 0): the west face takes twice what each slanted one does
        assert gains[4] == pytest.approx(2.0 * gains[3], rel=1e-12)
        assert gains[3] == pytest.approx(gains[5], rel=1e-12)

    def test_three_four(self):
        g, z = tilted(3.0, 4.0)
        before, after = probe(z, [(3, 3)], grid=g)
        expected = manning_face_volumes(before, (3, 3), 3.0, 4.0)
        assert set(expected) == {4, 5, 6}
        assert face_gains(before, after, (3, 3)) == pytest.approx(expected, rel=1e-12)


class TestClassify:
    """Receptor faces: the neighbors that one wet cell's step wets."""

    def test_flat_no_receptors(self):
        before, after = probe(np.full((5, 5), 2.0), [(2, 2)])
        assert face_gains(before, after, (2, 2)) == {}

    def test_eastward_tilt_three_westward_faces(self):
        # For a potential increasing with x the descent points along -x;
        # faces 3, 4, 5 all have outward normals with a positive component
        # along the descent and lower neighbors behind them.
        g, z = tilted(1.0, 0.0)
        before, after = probe(z, [(3, 3)], grid=g)
        assert set(face_gains(before, after, (3, 3))) == {3, 4, 5}

    def test_pit_has_no_receptors(self):
        z = np.full((5, 5), 4.0)
        z[2, 2] = 0.0
        z[1, 2] = 3.0  # break symmetry so the fitted plane tilts
        before, after = probe(z, [(2, 2)])
        assert fit_plane(before, (2, 2)) != (0.0, 0.0)
        assert np.array_equal(after.h, before.h)


class TestVelocity:
    """The Manning speed h^(2/3) * sqrt(s) / n, seen in the shed volume."""

    def test_manning_magnitude(self):
        g, z = tilted(0.3, -0.2)
        before, after = probe(z, [(3, 3)], depth=0.35, grid=g, manning_n=0.04, dt=0.05)
        shed = (before.h[3, 3] - after.h[3, 3]) * g.cell_area
        expected = sum(manning_face_volumes(before, (3, 3), 0.3, -0.2).values())
        assert shed == pytest.approx(expected, rel=1e-12)

    def test_zero_depth(self):
        g, z = tilted(1.0, 0.5)
        before, after = probe(z, [(3, 3)], depth=0.0, grid=g)
        assert not after.h.any()

    def test_doubling_manning_halves_speed(self):
        g, z = tilted(0.0, 1.0)
        sheds = []
        for manning_n in (0.03, 0.06):
            before, after = probe(z, [(3, 3)], grid=g, manning_n=manning_n)
            sheds.append((before.h[3, 3] - after.h[3, 3]) * g.cell_area)
        assert sheds[0] == pytest.approx(2.0 * sheds[1], rel=1e-12)


class TestCourantDt:
    def test_matches_suggest_dt_and_keeps_topology(self):
        g = HexGrid(ncols=12, nrows=10, r=1.0, x0=0.0, y0=0.0)
        X, Y = hex_centers(g)
        z = 0.03 * X - 0.01 * Y * Y
        z[4, 5] = -9999.0
        state = make_state(z, h=np.full(z.shape, 0.2), nodata=-9999.0)
        dt = courant_dt(state)
        assert dt == suggest_dt(g, z, 0.2, 0.05, nodata=-9999.0)
        assert state._topo is not None
        assert replace(state, dt=dt)._topo is state._topo

    def test_deepest_water_bounds_the_step(self):
        g = HexGrid(ncols=8, nrows=8, r=1.0, x0=0.0, y0=0.0)
        X, _ = hex_centers(g)
        h = np.full(X.shape, 0.1)
        shallow = courant_dt(make_state(0.05 * X, h=h))
        h[3, 3] = 0.8
        assert courant_dt(make_state(0.05 * X, h=h)) < shallow

    def test_flat_dry_terrain(self):
        assert courant_dt(make_state(np.zeros((4, 4)))) == 1.0

    @pytest.mark.parametrize("depth", [0.1, 0.0])
    def test_relief_near_the_float_range_is_refused(self, depth):
        """Finite terrain whose squared slopes overflow has no finite
        velocity bound: a data error, with no numpy warning."""
        z = np.random.default_rng(0).uniform(0.0, 1e200, (5, 6))
        state = make_state(z, h=np.full(z.shape, depth))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError, match="velocity bound .* not finite"):
                courant_dt(state)


class TestStep:
    def test_flat_terrain_unchanged(self):
        st = make_state(np.zeros((6, 6)), h=np.full((6, 6), 0.3))
        new = step(st)
        assert np.array_equal(new.h, st.h)

    def test_donor_loss_equals_receptor_gain(self):
        g = HexGrid(ncols=7, nrows=7, r=1.0, x0=0.0, y0=0.0)
        X, _ = hex_centers(g)
        st = make_state(0.1 * X, h=np.full((7, 7), 0.2), grid=g, dt=0.05)
        v0 = st.total_volume()
        new = step(st)
        assert new.total_volume() == pytest.approx(v0, rel=1e-14)

    def test_mass_conservation_closed(self):
        rng = np.random.default_rng(2)
        g = HexGrid(ncols=20, nrows=20, r=1.0, x0=0.0, y0=0.0)
        st = make_state(rng.uniform(0, 2, (20, 20)), h=np.full((20, 20), 0.1), grid=g, dt=0.2)
        v0 = st.total_volume()
        for _ in range(100):
            st = step(st)
        assert abs(st.total_volume() - v0) / v0 < 1e-9

    def test_nonnegative_depths(self):
        rng = np.random.default_rng(3)
        g = HexGrid(ncols=15, nrows=15, r=1.0, x0=0.0, y0=0.0)
        st = make_state(rng.uniform(0, 5, (15, 15)), h=np.full((15, 15), 0.05), grid=g, dt=5.0)
        for _ in range(50):
            st = step(st)
            assert (st.h >= 0.0).all()

    def test_open_boundary_ledger(self):
        g = HexGrid(ncols=12, nrows=12, r=1.0, x0=0.0, y0=0.0)
        X, Y = hex_centers(g)
        st = make_state(0.2 * X + 0.1 * Y, h=np.full((12, 12), 0.2), grid=g,
                        dt=0.3, boundary="open")
        v0 = st.total_volume()
        for _ in range(200):
            st = step(st)
        assert st.outflow_volume > 0.0
        assert abs(v0 - (st.total_volume() + st.outflow_volume)) / v0 < 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(0, 3, (10, 10))
        a = make_state(z, h=np.full((10, 10), 0.1), dt=0.2)
        b = make_state(z, h=np.full((10, 10), 0.1), dt=0.2)
        for _ in range(20):
            a = step(a)
            b = step(b)
        assert np.array_equal(a.h, b.h)

    def test_nodata_cells_are_walls(self):
        z = np.zeros((5, 5))
        z[2, 2] = -9999.0
        st = make_state(z, h=np.full((5, 5), 0.1), nodata=-9999.0)
        h_hole_before = st.h[2, 2]
        new = step(st)
        assert new.h[2, 2] == h_hole_before  # hole never exchanges water

    def test_non_finite_state_detected(self):
        st = make_state(np.zeros((4, 4)), h=np.full((4, 4), 0.1))
        st.h[1, 1] = np.inf  # corrupt after validation
        with pytest.raises(NonFiniteStateError):
            step(st)

    def test_capping_counter_reported(self):
        g = HexGrid(ncols=9, nrows=9, r=1.0, x0=0.0, y0=0.0)
        X, _ = hex_centers(g)
        st = make_state(2.0 * X, h=np.full((9, 9), 1.0), grid=g, dt=100.0)
        new = step(st)
        assert new.capping_events > 0
        assert (new.h >= 0.0).all()


class TestCellFlow:
    def test_donors_in_reciprocity(self):
        g, z = tilted(1.0, 0.0)
        before, after = probe(z, [(3, 3)], grid=g)
        assert set(face_gains(before, after, (3, 3))) == {3, 4, 5}
        # water arrives from the uphill side: faces 1, 2, 6 point east
        donors = set()
        for nb in g.neighbors(3, 3):
            before, after = probe(z, [nb.cell], grid=g)
            if after.h[3, 3] > 0.0:
                donors.add(nb.face)
        assert donors == {1, 2, 6}


class TestRun:
    def test_zero_steps_mask_empty(self):
        st = make_state(np.zeros((5, 5)), h=np.full((5, 5), 0.1))
        res = run(st, 0)
        assert res.summary["masked_cells"] == 0
        assert np.array_equal(res.depth.values, st.h)

    def test_bowl_mask_shrinks_with_steepness(self):
        g = HexGrid(ncols=40, nrows=40, r=1.0, x0=0.0, y0=0.0)
        X, Y = hex_centers(g)
        d2 = (X - X.mean()) ** 2 + (Y - Y.mean()) ** 2
        sizes = []
        for steep in (2e-4, 1e-3, 5e-3):
            z = steep * d2
            dt = suggest_dt(g, z, 0.05, 0.05)
            st = make_state(z, h=np.full((40, 40), 0.05), grid=g, dt=dt)
            res = run(st, 400)
            sizes.append(res.summary["masked_cells"])
            # accumulation concentrates around the pit
            mask = res.mask.values == 1.0
            assert mask.any()
            rows, cols = np.nonzero(mask)
            pit = np.unravel_index(np.argmin(z), z.shape)
            assert abs(rows.mean() - pit[0]) < 6
            assert abs(cols.mean() - pit[1]) < 6
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_valley_mask_is_connected_path(self):
        g = HexGrid(ncols=41, nrows=41, r=1.0, x0=0.0, y0=0.0)
        X, Y = hex_centers(g)
        z = 0.3 * np.abs(X - X.mean()) + 0.02 * (Y - Y.min())
        dt = suggest_dt(g, z, 0.05, 0.05)
        st = make_state(z, h=np.full((41, 41), 0.05), grid=g, dt=dt)
        res = run(st, 400, mask_margin=0.1)
        cells = {
            (int(c), int(r)) for r, c in zip(*np.nonzero(res.mask.values == 1.0))
        }
        assert cells
        start = next(iter(cells))
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nb in g.neighbors(*cur):
                if nb.cell in cells and nb.cell not in seen:
                    seen.add(nb.cell)
                    queue.append(nb.cell)
        assert seen == cells
        rows = {r for (_, r) in cells}
        assert max(rows) - min(rows) > 30  # spans the valley axis

    def test_summary_volumes(self):
        st = make_state(np.zeros((4, 4)), h=np.full((4, 4), 0.2))
        res = run(st, 5)
        assert res.summary["volume_initial"] == pytest.approx(res.summary["volume_final"])
        assert res.summary["outflow_volume"] == 0.0


def holed(nrows, ncols, seed, **kw):
    """Seeded rough terrain with 5% NODATA holes and a wet layer."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 3.0, (nrows, ncols))
    z[rng.random(z.shape) < 0.05] = -9999.0
    kw.setdefault("dt", 0.5)
    return make_state(z, h=np.full(z.shape, 0.1), nodata=-9999.0, **kw)


class TestTopology:
    def test_keeps_no_face_index_or_weight_table(self):
        st = holed(9, 11, 5)
        topo = st.topology()
        cells = 9 * 11
        tables = {k: v for k, v in vars(topo).items() if isinstance(v, np.ndarray)}
        for name in ("gather", "inflow", "wa", "wb", "_gathered"):
            assert name not in tables, name
        six = {k for k, v in tables.items() if v.shape[:1] == (6,) and v.size >= 6 * cells}
        # The face-major tables left are two masks; the pair volumes keep
        # one signed entry per face pair and layout slot.  None holds an index.
        assert six == {"has", "lower"}
        assert tables["has"].dtype == tables["lower"].dtype == bool
        assert tables["_volume"].shape == (3, topo.layout.size)
        # Interior weights and rim weights are the index-table router's
        # dense face-major ones.
        oracle = TableRouter(st.grid, st.valid_mask())
        rim = topo.layout.cell_index(topo.rim)
        for w, rim_w, dense in zip(topo.weights, topo.rim_weights, (oracle.wa, oracle.wb)):
            table = np.zeros((6, cells))
            table[:, topo.valid] = w[:, None]
            table[:, rim] = rim_w
            assert bits(table) == bits(dense)

    def test_neigh_is_cell_major_without_holes(self):
        st = holed(9, 11, 6)
        topo = st.topology()
        valid = st.valid_mask()
        neigh = topo.neigh
        assert neigh.shape == (99, 6)
        for row in range(9):
            for col in range(11):
                expected = [-1] * 6
                if valid[row, col]:
                    for nb in st.grid.neighbors(col, row):
                        c, r = nb.cell
                        if valid[r, c]:
                            expected[nb.face - 1] = r * 11 + c
                assert neigh[row * 11 + col].tolist() == expected


    def test_gradient_is_bitwise_the_einsum_reference(self):
        """The written-out face sum equals numpy's einsum over cell-major rows,
        signed zeros included."""
        rng = np.random.default_rng(10)
        state = holed(23, 19, 10)
        topo = state.topology()
        valid, neigh = topo.valid, topo.neigh
        oracle = TableRouter(state.grid, state.valid_mask())
        c = valid.size
        for psi in (
            rng.uniform(-5.0, 5.0, c),
            rng.integers(-2, 3, c) * 0.5,
            np.where(rng.random(c) < 0.5, -0.0, 0.0),
        ):
            gradient = topo.gradient(psi)
            masked = np.where(valid, psi, 0.0)
            rel = np.where(neigh >= 0, np.append(masked, 0.0)[neigh] - masked[:, None], 0.0)
            # einsum's order depends on the layout: contiguous rows, as the
            # cell-major tables were, add faces (0, 2, 4) and (1, 3, 5).
            rel = np.ascontiguousarray(rel)
            for got, w in zip(gradient, (oracle.wa, oracle.wb)):
                expected = np.einsum("ij,ij->i", np.ascontiguousarray(w.T), rel)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestWorkspace:
    """The topology's step workspace never leaks from one state into another."""

    def test_alternating_states_match_states_stepped_apart(self):
        first = holed(14, 12, 7, boundary="open")
        first.topology()
        second = replace(first, h=np.full(first.h.shape, 0.4), boundary="closed", dt=2.0)
        assert second.topology() is first.topology()
        apart = []
        for st in (first, second):
            st = replace(st, _topo=None)
            for _ in range(12):
                st = step(st)
            apart.append(st)
        assert apart[0].topology() is not apart[1].topology()
        assert apart[1].capping_events > 0  # the scale-back path ran
        shared = [first, second]
        for _ in range(12):
            shared = [step(st) for st in shared]
        for a, b in zip(shared, apart):
            assert np.array_equal(a.h, b.h)
            assert (a.outflow_volume, a.capping_events) == (b.outflow_volume, b.capping_events)

    def test_returned_depths_share_no_memory(self):
        st = holed(10, 13, 8, boundary="open", dt=2.0)
        topo = st.topology()
        buffers = [v for v in vars(topo).values() if isinstance(v, np.ndarray)]
        for _ in range(3):
            new = step(st)
            assert not np.shares_memory(new.h, st.h)
            assert not any(np.shares_memory(new.h, buf) for buf in buffers)
            st = new

    def test_warm_step_allocates_no_face_tables(self):
        st = holed(110, 100, 9, boundary="open", dt=0.2)
        st = step(st)  # builds the topology and its workspace
        table = 6 * st.h.size * 8
        tracemalloc.start()
        try:
            step(st)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * table

    @staticmethod
    def peak_of(call):
        """tracemalloc peak of ``call()`` above what was allocated before it."""
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_warm_step_allocates_only_its_result(self):
        st = holed(110, 100, 9, boundary="open", dt=0.2)
        st = step(st)
        cells = st.h.size
        assert self.peak_of(lambda: step(st)) < 8 * cells + 4 * cells + 64 * 1024

    def test_fits_allocate_no_face_table(self):
        st = holed(110, 100, 9, boundary="open", dt=0.2)
        topo = st.topology()
        psi = (st.z + st.h).ravel()
        cells = st.h.size
        courant_dt(st), topo.gradient(psi)  # warm
        # numpy's ufuncs over strided (nrows, ncols) slices take iterator
        # buffers of at most 8192 values an operand, whatever the grid's size.
        buffers = 3 * 8192 * 8
        assert self.peak_of(lambda: courant_dt(st)) < 4 * cells + buffers
        # gradient's two results are its own arrays; beyond them, as little.
        assert self.peak_of(lambda: topo.gradient(psi)) < 16 * cells + 4 * cells + buffers
        assert topo.lower.dtype == bool

    def test_results_outlive_later_steps(self):
        st = holed(12, 15, 13, boundary="open", dt=2.0)
        topo = st.topology()
        gradient = topo.gradient((st.z + st.h).ravel())
        kept = [g.copy() for g in gradient]
        plane = fit_plane(st, (4, 5))
        dt = courant_dt(st)
        later = st
        for _ in range(3):
            later = step(later)
        assert later.topology() is topo
        assert not any(np.shares_memory(g, buf) for g in gradient
                       for buf in vars(topo).values() if isinstance(buf, np.ndarray))
        for got, want in zip(gradient, kept):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert all(type(x) is float for x in (*plane, dt))
        fresh = replace(st, _topo=None)
        assert plane == fit_plane(fresh, (4, 5))
        assert dt == courant_dt(fresh)

    def test_run_allocates_only_its_results(self):
        run(holed(20, 20, 3, boundary="open", dt=0.2), 2)  # first use of every routine
        st = holed(160, 120, 11, boundary="open", dt=0.2)
        st.topology()
        # The final depths, the depth and mask rasters, two bool masks and a
        # ufunc cast buffer: 29.6 bytes a cell.  A copy of the starting
        # depths adds 8, a float copy of the mask before np.where 3.6.
        assert self.peak_of(lambda: run(st, 4)) < 31 * st.h.size

    def test_step_skips_the_state_checks(self, monkeypatch):
        st = holed(9, 8, 14, boundary="open")

        def checked(self):
            raise AssertionError("a step re-checked its successor")

        monkeypatch.setattr(FlowState, "__post_init__", checked)
        new = step(st)
        assert (new.z is st.z, new.topology() is st.topology(), new.step_count) == (True, True, 1)
        assert (new.manning_n, new.dt, new.boundary, new.nodata) == (
            st.manning_n, st.dt, st.boundary, st.nodata)


class TestTopologyMemory:
    """A topology keeps masks, rim weights and the step workspace, but no
    face-major index or weight table, and its build holds little beyond that."""

    @staticmethod
    def build(st):
        valid = st.valid_mask()
        _Topology(st.grid, valid)  # first use of every numpy routine it calls
        tracemalloc.start()
        try:
            topo = _Topology(st.grid, valid)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert topo.valid.size == st.h.size
        return kept / st.h.size, (peak - kept) / st.h.size

    def test_bytes_kept_per_cell(self):
        # masks 13, pair volumes 25 and potential 8, slot buffers 51 (the
        # layout's pad slots add 2% to each), rim weights, relative
        # potentials and indices 42 (27% of the cells are rim cells here),
        # edge lists 1: about 141 bytes a cell, where the index-table
        # topology kept 385.
        kept, _ = self.build(holed(160, 120, 11))
        assert kept < 150

    def test_build_peak_beyond_what_it_keeps(self):
        _, extra = self.build(holed(160, 120, 12))
        assert extra < 8


class TableRouter:
    """The index-table router that the slice-stencil one replaced, kept as an
    oracle: a self-padded neighbor gather, opposite-face inflow indices and
    dense face-major plane-fit weights, each ``(6, cells)``."""

    def __init__(self, grid, valid):
        c = grid.nrows * grid.ncols
        self.valid = valid.ravel()
        cells = np.arange(c)
        table = neighbor_table(grid, cells % grid.ncols, cells // grid.ncols)
        exists = table >= 0
        self.has = exists & self.valid[table] & self.valid
        self.is_edge = ~exists & self.valid
        self.gather = np.where(self.has, table, cells)
        opp = np.array(OPPOSITE_FACE)[:, None] - 1
        self.inflow = opp * (c + 1) + np.where(self.has, table, c)
        edge_cell, edge_face = np.nonzero(self.is_edge.T)
        self.shed = edge_face * (c + 1) + edge_cell
        r = grid.r
        self.wa, self.wb = np.zeros((2, 6, c))
        full = self.valid & self.has.all(axis=0)
        self.wa[:, full] = (np.array([2.0, 1.0, -1.0, -2.0, -1.0, 1.0]) / (6.0 * SQRT3 * r))[:, None]
        self.wb[:, full] = (np.array([0.0, 1.0, 1.0, 0.0, -1.0, -1.0]) / (6.0 * r))[:, None]
        rest = np.nonzero(self.valid & ~full)[0]
        pattern = (1 << np.arange(6)) @ self.has[:, rest]
        for code in np.unique(pattern):
            faces = np.nonzero(code >> np.arange(6) & 1)[0]
            if faces.size < 2:
                continue
            design = np.ones((faces.size + 1, 3))
            design[0, 1:] = 0.0
            design[1:, 1] = r * SQRT3 * FACE_NORMALS[faces, 0]
            design[1:, 2] = r * SQRT3 * FACE_NORMALS[faces, 1]
            pinv = np.linalg.pinv(design)
            at = rest[pattern == code]
            self.wa[faces[:, None], at] = pinv[1, 1:, None]
            self.wb[faces[:, None], at] = pinv[2, 1:, None]

    def gradient(self, psi):
        psi = np.where(self.valid, psi, 0.0)
        self.rel = psi[self.gather] - psi
        out = []
        for w in (self.wa, self.wb):
            even, odd = w[0] * self.rel[0], w[1] * self.rel[1]
            for f in (2, 4):
                even += w[f] * self.rel[f]
                odd += w[f + 1] * self.rel[f + 1]
            out.append(even + odd + 0.0)
        return tuple(out)

    def step(self, state):
        """(depths, shed volume, capped cells) of one step of ``state``."""
        grid, valid = state.grid, self.valid
        h = state.h.ravel()
        a, b = self.gradient(state.z.ravel() + h)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            g2 = a * a + b * b
            s = np.sqrt(g2 / (1.0 + g2))
            norm = np.sqrt(g2)
            moving = valid & (norm > 0.0) & (h > 0.0)
            inv = np.where(norm > 0.0, 1.0 / np.where(norm > 0.0, norm, 1.0), 0.0)
            tau_x, tau_y = -a * inv, -b * inv
            v = np.where(moving, h ** (2.0 / 3.0) * np.sqrt(s) / state.manning_n, 0.0)
            volume = np.zeros((6, h.size + 1))
            for f, (nx, ny) in enumerate(FACE_NORMALS):
                rate = (tau_x * nx + tau_y * ny) * v
                send = rate > 0.0
                take = (self.rel[f] < 0.0) & send
                if state.boundary == "open":
                    take |= send & self.is_edge[f] & moving
                volume[f, :-1] = np.where(take, rate, 0.0) * (state.dt * grid.side * h)
            out = volume[:, :-1].sum(axis=0)
            avail = h * grid.cell_area
            over = (out > avail) & valid
            if over.any():
                scale = np.where(
                    over, np.where(out > 0.0, avail / np.where(out > 0.0, out, 1.0), 1.0), 1.0
                )
                volume[:, :-1] *= scale
                out = volume[:, :-1].sum(axis=0)
        inflow = volume.ravel()[self.inflow].sum(axis=0)
        shed = float(volume.take(self.shed).sum()) if state.boundary == "open" else 0.0
        h_new = np.maximum(h + (inflow - out) / grid.cell_area, 0.0)
        return h_new.reshape(state.h.shape), shed, int(np.count_nonzero(over))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


class TestSliceStencils:
    """Neighbors as shifted 1-D slices of the parity-split layout change no
    bit of the index-table router's gradients, depths, ledger or capping
    count."""

    @settings(max_examples=200, deadline=None)
    @given(
        nrows=st.integers(1, 9),
        ncols=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        holes=st.sampled_from([0.0, 0.1, 0.4]),
        boundary=st.sampled_from(["open", "closed"]),
        dt=st.sampled_from([0.05, 50.0]),
        depths=st.sampled_from(["uniform", "signed zeros", "NaN in holes", "dry cells",
                                "flat lake"]),
    )
    def test_matches_the_index_table_router(self, nrows, ncols, seed, holes, boundary, dt,
                                            depths):
        rng = np.random.default_rng(seed)
        z = rng.uniform(0.0, 3.0, (nrows, ncols))
        z[rng.random(z.shape) < holes] = -9999.0
        h = rng.uniform(0.0, 0.5, z.shape)
        if depths == "signed zeros":
            h = np.where(rng.random(z.shape) < 0.5, h, rng.choice([0.0, -0.0], z.shape))
        if depths == "NaN in holes":  # holes are walls, whatever they hold
            h[z == -9999.0] = np.nan
        # Dry cells and a lake whose surface is flat to the ulp send nothing
        # through most faces: their face pairs keep zeros of either sign.
        if depths == "dry cells":
            h[rng.random(z.shape) < rng.uniform(0.2, 0.8)] = 0.0
        if depths == "flat lake":
            h = 3.5 - z
            h = np.where(rng.random(z.shape) < 0.5, np.nextafter(h, np.inf), h)
            h[z == -9999.0] = 0.1
        state = make_state(z, h=h, nodata=-9999.0, boundary=boundary, dt=dt)
        oracle = TableRouter(state.grid, state.valid_mask())
        topo = state.topology()
        for psi in (state.z.ravel() + state.h.ravel(), rng.integers(-2, 3, z.size) * 0.5):
            for got, want in zip(topo.gradient(psi), oracle.gradient(psi)):
                assert bits(got) == bits(want)
            lower = topo.layout.cells(topo.lower).reshape(6, -1)
            assert np.array_equal(lower, oracle.rel < 0.0)
        outflow, capped = 0.0, 0
        for _ in range(3):
            want_h, shed, count = oracle.step(state)
            state = step(state)
            outflow, capped = outflow + shed, capped + count
            assert bits(state.h) == bits(want_h)
            assert bits(state.outflow_volume) == bits(outflow)
            assert state.capping_events == capped

    @pytest.mark.parametrize("boundary", ["open", "closed"])
    def test_holes_may_hold_negative_depths(self, boundary):
        """A state checks depths on valid cells only; a hole's negative
        depth steps as in the index-table router and never counts as a
        capped donor."""
        state = holed(8, 9, 15, boundary=boundary, dt=0.5)
        plain = state  # its holes hold 0.1
        h = state.h.copy()
        h[~state.valid_mask()] = -1.0
        state = replace(state, h=h)
        oracle = TableRouter(state.grid, state.valid_mask())
        outflow, capped = 0.0, 0
        for _ in range(3):
            want_h, shed, count = oracle.step(state)
            state, plain = step(state), step(plain)
            outflow, capped = outflow + shed, capped + count
            assert bits(state.h) == bits(want_h)
            assert bits(state.outflow_volume) == bits(outflow)
            assert state.capping_events == capped
        # Valid cells do cap at this dt; the holes add none of their own.
        assert capped == plain.capping_events > 0

    @pytest.mark.parametrize("boundary", ["open", "closed"])
    def test_large_holed_grid_matches_the_index_table_router(self, boundary):
        """Beyond the 9 x 9 grids above: 61 rows and 37 columns, both odd,
        with holes, over 20 steps at a time step that caps donors."""
        state = holed(61, 37, 16, boundary=boundary, dt=2.0)
        oracle = TableRouter(state.grid, state.valid_mask())
        topo = state.topology()
        psi = (state.z + state.h).ravel()
        for got, want in zip(topo.gradient(psi), oracle.gradient(psi)):
            assert bits(got) == bits(want)
        assert np.array_equal(topo.layout.cells(topo.lower).reshape(6, -1), oracle.rel < 0.0)
        outflow, capped = 0.0, 0
        for _ in range(20):
            want_h, shed, count = oracle.step(state)
            state = step(state)
            outflow, capped = outflow + shed, capped + count
            assert bits(state.h) == bits(want_h)
            assert bits(state.outflow_volume) == bits(outflow)
            assert state.capping_events == capped
        assert capped > 0
        assert (outflow > 0.0) == (boundary == "open")


def outcome(state, steps):
    """Bits of the depths, outflow and capping count after ``steps`` steps,
    or the type and message of the error that one of them raised."""
    try:
        for _ in range(steps):
            state = step(state)
    except Exception as exc:
        return type(exc), str(exc)
    return bits(state.h), bits(state.outflow_volume), state.capping_events


class TestConcurrentHalves:
    """The layout's halves give the same bytes whether the caller runs them
    in turn or a second thread runs the odd one at the same time."""

    @staticmethod
    def concurrent(mp):
        """Force the two-thread dispatch, whatever the grid and the cores."""
        mp.setattr(hydroflow, "_CONCURRENT_SLOTS", 0)
        mp.setattr(hydroflow.os, "sched_getaffinity", lambda pid: {0, 1})

    @settings(max_examples=150, deadline=None)
    @given(
        nrows=st.integers(1, 12),
        ncols=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        holes=st.sampled_from([0.0, 0.1, 0.4]),
        boundary=st.sampled_from(["open", "closed"]),
        courants=st.sampled_from([0.5, 1.0, 20.0]),
        relief=st.sampled_from([3.0, 3.0, 1e300, 1.7e308]),
        depths=st.sampled_from(["uniform", "signed zeros", "negative in holes",
                                "NaN in holes"]),
        strict=st.booleans(),
    )
    def test_concurrent_matches_serial(self, nrows, ncols, seed, holes, boundary, courants,
                                       relief, depths, strict):
        rng = np.random.default_rng(seed)
        z = relief * rng.uniform(-1.0, 1.0, (nrows, ncols))
        hole = rng.random(z.shape) < holes
        z[hole] = -9999.0
        h = rng.uniform(0.0, 0.5, z.shape)
        if depths == "signed zeros":
            h = np.where(rng.random(z.shape) < 0.5, h, rng.choice([0.0, -0.0], z.shape))
        if depths == "negative in holes":
            h[hole] = -1.0
        if depths == "NaN in holes":
            h[hole] = np.nan
        state = make_state(z, h=h, nodata=-9999.0, boundary=boundary)
        try:
            dt = courants * courant_dt(state)
        except NonFiniteStateError:  # the relief overflows the slopes
            dt = 1.0
        state = replace(state, dt=dt)
        got = []
        for forced in (False, True):
            with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
                # Warnings as errors raise inside a half's phase.
                warnings.simplefilter("error" if strict else "ignore", RuntimeWarning)
                if forced:
                    self.concurrent(mp)
                got.append(outcome(replace(state, _topo=None), 3))
        assert got[0] == got[1]

    def test_halves_switching_often_match_serial(self, monkeypatch):
        """The interpreter hands over between the threads every microsecond;
        a half that wrote into the other's slots, or read them before they
        were written, would change bits over 20 capping steps."""
        state = holed(41, 37, 17, boundary="open", dt=2.0)
        serial = outcome(replace(state, _topo=None), 20)
        self.concurrent(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert outcome(replace(state, _topo=None), 20) == serial
        finally:
            sys.setswitchinterval(interval)
        assert serial[2] > 0  # capping ran

    def test_forced_dispatch_runs_the_odd_half_on_a_thread(self, monkeypatch):
        self.concurrent(monkeypatch)
        ran = []
        monkeypatch.setattr(_Topology, "_gain", lambda topo, parity: ran.append(
            (parity, threading.current_thread() is threading.main_thread())) or True)
        step(holed(5, 4, 1))
        assert sorted(ran) == [(0, True), (1, False)]

    def test_one_core_runs_the_halves_in_turn(self, monkeypatch):
        monkeypatch.setattr(hydroflow, "_CONCURRENT_SLOTS", 0)
        monkeypatch.setattr(hydroflow.os, "sched_getaffinity", lambda pid: {0})
        ran = []
        monkeypatch.setattr(_Topology, "_gain", lambda topo, parity: ran.append(
            (parity, threading.current_thread() is threading.main_thread())) or True)
        step(holed(5, 4, 1))
        assert ran == [(0, True), (1, True)]

    def test_error_in_a_half_waits_for_the_other(self, monkeypatch):
        self.concurrent(monkeypatch)
        finished = []

        def gain(topo, parity):
            if parity == 1:
                raise MemoryError("odd half")
            time.sleep(0.05)
            finished.append(parity)
            return True

        monkeypatch.setattr(_Topology, "_gain", gain)
        with pytest.raises(MemoryError, match="odd half"):
            step(holed(6, 5, 2))
        assert finished == [0]
        monkeypatch.undo()
        self.concurrent(monkeypatch)
        st = holed(6, 5, 2)  # and the next step runs as before
        assert outcome(st, 2) == outcome(replace(st, _topo=None), 2)


    def test_the_error_the_serial_order_meets_first_is_raised(self, monkeypatch):
        self.concurrent(monkeypatch)
        later = []

        def fit(topo, parity):
            if parity == 0:
                time.sleep(0.05)  # the odd half fails first in time
            raise ValueError(f"half {parity}")

        monkeypatch.setattr(_Topology, "_fit", fit)
        monkeypatch.setattr(_Topology, "_gain", lambda topo, parity: later.append(parity))
        with pytest.raises(ValueError, match="half 0"):
            step(holed(6, 5, 2))
        assert later == []  # no half went past the failed phase

# Steps a grid above the threshold on two threads, whatever cores the
# process may use, so that its worker thread runs.
CHILD = """
import os, sys
import numpy as np
from hexport import hydroflow
from hexport.hexgrid import HexGrid
hydroflow.os.sched_getaffinity = lambda pid: {0, 1}
n = int(np.ceil(np.sqrt(hydroflow._CONCURRENT_SLOTS)))
rng = np.random.default_rng(3)
state = hydroflow.FlowState(
    grid=HexGrid(ncols=n, nrows=n, r=1.0, x0=0.0, y0=0.0), z=rng.uniform(0.0, 3.0, (n, n)),
    h=np.full((n, n), 0.1), manning_n=0.03, dt=0.1, boundary="open")
assert state.topology().layout.size >= hydroflow._CONCURRENT_SLOTS
first = hydroflow.step(state)
"""


class TestOddHalfThread:
    def run_child(self, script):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-c", CHILD + script], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_forked_child_steps_on_its_own_thread(self):
        done = self.run_child("""
pid = os.fork()
if pid == 0:
    again = hydroflow.step(state)
    os._exit(0 if np.array_equal(again.h, first.h) else 3)
_, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
""")
        assert done.returncode == 0, done.stderr

    def test_process_exits_after_a_threaded_step(self):
        start = time.perf_counter()
        done = self.run_child("print(first.step_count)")
        assert (done.returncode, done.stdout) == (0, "1\n"), done.stderr
        assert time.perf_counter() - start < 60
