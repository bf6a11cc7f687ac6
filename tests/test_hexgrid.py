import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexport.errors import EmptyDomainError, OutOfRangeError
from hexport.hexgrid import (
    FACE_NORMALS,
    SQRT3,
    HexGrid,
    ParityLayout,
    cover_domain,
    hex_vertices,
    locate_many,
    neighbor_table,
)

from conftest import hex_centers


class TestCellCenter:
    def test_origin(self):
        g = HexGrid(ncols=3, nrows=3, r=1.0, x0=0.0, y0=0.0)
        assert g.cell_center(0, 0) == (0.0, 0.0)

    def test_second_column(self):
        g = HexGrid(ncols=3, nrows=3, r=1.0, x0=0.0, y0=0.0)
        x, y = g.cell_center(1, 0)
        assert x == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert y == 0.0

    def test_odd_row_offset(self):
        g = HexGrid(ncols=3, nrows=3, r=1.0, x0=0.0, y0=0.0)
        x, y = g.cell_center(0, 1)
        assert x == pytest.approx(-math.sqrt(3.0) / 2.0, rel=1e-15)
        assert y == pytest.approx(-1.5, rel=1e-15)

    def test_out_of_range(self):
        g = HexGrid(ncols=2, nrows=2, r=1.0, x0=0.0, y0=0.0)
        with pytest.raises(OutOfRangeError):
            g.cell_center(2, 0)


class TestNeighbors:
    def test_interior_has_six_with_balanced_normals(self):
        g = HexGrid(ncols=5, nrows=5, r=2.0, x0=0.0, y0=0.0)
        nb = g.neighbors(2, 2)
        assert len(nb) == 6
        total = np.sum([n.normal for n in nb], axis=0)
        assert np.allclose(total, 0.0, atol=1e-15)

    def test_adjacent_center_distance(self):
        g = HexGrid(ncols=6, nrows=6, r=0.7, x0=3.0, y0=-2.0)
        for row in range(6):
            for col in range(6):
                c = g.cell_center(col, row)
                for nb in g.neighbors(col, row):
                    d = math.dist(c, g.cell_center(*nb.cell))
                    assert d == pytest.approx(g.r * SQRT3, rel=1e-12)

    def test_corner_neighbors_match_distance_oracle(self):
        g = HexGrid(ncols=3, nrows=3, r=1.0, x0=0.0, y0=0.0)
        for row in range(3):
            for col in range(3):
                got = {nb.cell for nb in g.neighbors(col, row)}
                c = g.cell_center(col, row)
                oracle = set()
                for rr in range(3):
                    for cc in range(3):
                        if (cc, rr) == (col, row):
                            continue
                        if math.dist(c, g.cell_center(cc, rr)) <= 1.001 * g.r * SQRT3:
                            oracle.add((cc, rr))
                assert got == oracle

    def test_corner_cell_count(self):
        g = HexGrid(ncols=3, nrows=3, r=1.0, x0=0.0, y0=0.0)
        assert len(g.neighbors(0, 0)) == 3  # east, south-east, south

    def test_reciprocity_grid_wide(self):
        g = HexGrid(ncols=10, nrows=10, r=1.0, x0=0.0, y0=0.0)
        opposite = {1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}
        violations = 0
        for row in range(10):
            for col in range(10):
                for nb in g.neighbors(col, row):
                    back = {b.cell: b.face for b in g.neighbors(*nb.cell)}
                    if back.get((col, row)) != opposite[nb.face]:
                        violations += 1
        assert violations == 0

    def test_face_normals_are_unit_and_60_degrees_apart(self):
        for f in range(6):
            n = FACE_NORMALS[f]
            assert np.hypot(*n) == pytest.approx(1.0, rel=1e-15)
            ang = math.degrees(math.atan2(n[1], n[0])) % 360.0
            assert ang == pytest.approx((f * 60.0) % 360.0, abs=1e-9)


class TestLocate:
    def test_every_center_maps_to_its_cell(self):
        g = HexGrid(ncols=7, nrows=5, r=0.9, x0=-1.0, y0=4.0)
        for row in range(5):
            for col in range(7):
                assert g.locate(*g.cell_center(col, row)) == (col, row)

    def test_midpoint_tie_breaks_to_smaller_row_col(self):
        g = HexGrid(ncols=3, nrows=3, r=1.0, x0=0.0, y0=0.0)
        c1 = g.cell_center(0, 0)
        c2 = g.cell_center(1, 0)
        mid = ((c1[0] + c2[0]) / 2.0, (c1[1] + c2[1]) / 2.0)
        assert g.locate(*mid) == (0, 0)

    def test_outside_region(self):
        g = HexGrid(ncols=3, nrows=3, r=1.0, x0=0.0, y0=0.0)
        assert g.locate(0.0, -50.0) is None
        assert g.locate(100.0, 0.0) is None

    def test_random_points_match_hexagon_membership(self):
        rng = np.random.default_rng(0)
        g = HexGrid(ncols=6, nrows=6, r=1.3, x0=0.0, y0=0.0)
        X, Y = hex_centers(g)
        xs = rng.uniform(X.min() - 2, X.max() + 2, 400)
        ys = rng.uniform(Y.min() - 2, Y.max() + 2, 400)
        cols, rows, inside = locate_many(g, xs, ys)
        for x, y, c, r, ok in zip(xs, ys, cols, rows, inside):
            if ok:
                cx, cy = g.cell_center(int(c), int(r))
                dx, dy = x - cx, y - cy
                lim = g.cell_width / 2.0 + 1e-6
                assert abs(dx) <= lim
                assert abs(0.5 * dx + SQRT3 * dy / 2.0) <= lim
                assert abs(-0.5 * dx + SQRT3 * dy / 2.0) <= lim


    @pytest.mark.parametrize("power", [-530, 530])
    def test_a_grid_scaled_by_a_power_of_two_looks_up_alike(self, power):
        # Unscaled, the squared offsets overflow past cells of about 1e154.
        g = HexGrid(ncols=5, nrows=4, r=0.7, x0=-1.0, y0=2.0)
        s = 2.0**power
        scaled = HexGrid(ncols=5, nrows=4, r=0.7 * s, x0=-1.0 * s, y0=2.0 * s)
        xs, ys = lattice_points(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = locate_many(scaled, xs * s, ys * s)
        for a, b in zip(got, locate_many(g, xs, ys)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (1e200, 0.0), (1e308, -1e308)],
                             ids=["nan", "far", "near-float-max"])
    def test_nan_and_far_points_are_outside_without_warnings(self, point):
        g = HexGrid(ncols=3, nrows=3, r=1.0, x0=0.0, y0=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.locate(*point) is None


def nine_candidate_lookup(grid, xs, ys):
    """locate_many as it was before its four-candidate lookup: the 3 x 3
    centers around the rounded fractional row and column, ties resolved by
    comparing (row, col); kept as the oracle of the new lookup."""
    w = grid.r * SQRT3
    jr = np.rint((grid.y0 - ys) / (1.5 * grid.r))
    best_d2 = np.full(xs.shape, np.inf)
    best_col = np.zeros(xs.shape, dtype=np.int64)
    best_row = np.zeros(xs.shape, dtype=np.int64)
    for dj in (-1, 0, 1):
        j = np.clip(jr + dj, 0, grid.nrows - 1).astype(np.int64)
        x_start = grid.x0 - (j % 2) * (w / 2.0)
        ir = np.rint((xs - x_start) / w)
        for di in (-1, 0, 1):
            i = np.clip(ir + di, 0, grid.ncols - 1).astype(np.int64)
            d2 = (xs - (x_start + i * w)) ** 2 + (ys - (grid.y0 - 1.5 * grid.r * j)) ** 2
            tie = (d2 == best_d2) & ((j < best_row) | ((j == best_row) & (i < best_col)))
            take = (d2 < best_d2) | tie
            best_d2 = np.where(take, d2, best_d2)
            best_col = np.where(take, i, best_col)
            best_row = np.where(take, j, best_row)
    dx = xs - (grid.x0 - (best_row % 2) * (w / 2.0) + best_col * w)
    dy = ys - (grid.y0 - 1.5 * grid.r * best_row)
    lim = w / 2.0 + 1e-9 * grid.r
    s3dy = SQRT3 * dy / 2.0
    inside = (
        (np.abs(dx) <= lim)
        & (np.abs(0.5 * dx + s3dy) <= lim)
        & (np.abs(-0.5 * dx + s3dy) <= lim)
    )
    return best_col, best_row, inside


def lattice_points(grid):
    """Centers, edge midpoints and vertices of every cell and of a two-cell
    ring around the grid, with each edge midpoint also pushed just inside
    and just outside the lookup's 1e-9 r edge tolerance; flat (xs, ys)."""
    w = grid.cell_width
    cols = np.arange(-2, grid.ncols + 2)
    rows = np.arange(-2, grid.nrows + 2)[:, None]
    cx = (grid.x0 + cols * w - (rows % 2) * (w / 2.0)).ravel()
    cy = np.broadcast_to(grid.y0 - 1.5 * grid.r * rows, (rows.size, cols.size)).ravel()
    ang = np.pi / 2.0 + np.arange(6) * np.pi / 3.0
    offsets = [np.zeros((1, 2)), grid.r * np.stack([np.cos(ang), np.sin(ang)], axis=1)]
    offsets += [(w / 2.0) * (1.0 + t) * FACE_NORMALS for t in (0.0, -2e-9, -1e-9, 1e-9, 2e-9)]
    d = np.concatenate(offsets)
    return (cx[:, None] + d[:, 0]).ravel(), (cy[:, None] + d[:, 1]).ravel()


@settings(max_examples=80, deadline=None)
@given(
    ncols=st.integers(1, 12),
    nrows=st.integers(1, 12),
    r=st.floats(1e-3, 3e5),
    x0=st.floats(-1e6, 1e6),
    y0=st.floats(-1e6, 1e6),
    seed=st.integers(0, 2**32 - 1),
    broadcast=st.booleans(),
)
def test_four_candidate_lookup_matches_the_nine_candidate_one(
    ncols, nrows, r, x0, y0, seed, broadcast
):
    """The four-candidate lookup agrees with the nine-candidate one on every
    point's ``inside``, and where inside on its cell; on random points up to
    two cells outside the grid and on the lattice's own points alike."""
    g = HexGrid(ncols=ncols, nrows=nrows, r=r, x0=x0, y0=y0)
    rng = np.random.default_rng(seed)
    w = g.cell_width
    lx, ly = lattice_points(g)
    xs = np.concatenate([rng.uniform(x0 - 2.5 * w, x0 + (ncols + 1.5) * w, 400), lx])
    ys = np.concatenate([rng.uniform(y0 - 1.5 * r * (nrows + 2), y0 + 3.0 * r, 400), ly])
    if broadcast:  # a row of xs against a column of ys: their whole lattice
        xs, ys = rng.choice(xs, 150)[None, :], rng.choice(ys, 150)[:, None]
        want = nine_candidate_lookup(g, *np.broadcast_arrays(xs, ys))
    else:
        want = nine_candidate_lookup(g, xs, ys)
    cols, rows, inside = locate_many(g, xs, ys)
    assert inside.shape == cols.shape == rows.shape == want[2].shape
    np.testing.assert_array_equal(inside, want[2])
    np.testing.assert_array_equal(cols[inside], want[0][inside])
    np.testing.assert_array_equal(rows[inside], want[1][inside])
    assert ((cols >= 0) & (cols < ncols) & (rows >= 0) & (rows < nrows)).all()


class TestCoverDomain:
    def test_radius_matching_100m_source_cells(self):
        # one hex width per 100 m source cell: r = 100 / sqrt(3)
        g = cover_domain((0, 0, 54200, 31000), cells_across=542)
        assert g.r == pytest.approx(57.735, abs=5e-4)
        assert g.ncols == 542

    def test_radius_matching_10m_source_cells(self):
        g = cover_domain((0, 0, 1300, 2400), cells_across=130)
        assert g.r == pytest.approx(5.7735, abs=5e-5)

    def test_single_column(self):
        g = cover_domain((0, 0, 10, 10), cells_across=1)
        assert g.ncols == 1
        assert g.nrows * 1.5 * g.r + 0.5 * g.r >= 10 - 1e-9
        assert (g.nrows - 1) * 1.5 * g.r + 0.5 * g.r < 10

    def test_rows_cover_height_minimally(self):
        g = cover_domain((0, 0, 40, 37), cells_across=25)
        h = 37.0
        assert g.nrows * 1.5 * g.r + 0.5 * g.r >= h - 1e-9
        assert (g.nrows - 1) * 1.5 * g.r + 0.5 * g.r < h

    def test_radius_variant(self):
        g = cover_domain((0, 0, 100, 50), radius=3.0)
        assert g.r == 3.0
        assert g.ncols * g.r * SQRT3 >= 100 - 1e-9
        assert (g.ncols - 1) * g.r * SQRT3 < 100

    def test_first_center_placement(self):
        g = cover_domain((2, 3, 12, 13), cells_across=4)
        assert g.x0 == pytest.approx(2 + g.r * SQRT3 / 2.0)
        assert g.y0 == pytest.approx(13 - g.r)

    def test_empty_domain(self):
        with pytest.raises(EmptyDomainError):
            cover_domain((0, 0, 0, 5), cells_across=3)

    def test_exactly_one_sizing_arg(self):
        with pytest.raises(ValueError):
            cover_domain((0, 0, 1, 1), cells_across=3, radius=1.0)
        with pytest.raises(ValueError):
            cover_domain((0, 0, 1, 1))

    def test_coverage_of_inset_domain(self):
        # The tessellation pinned here leaves scalloped slivers at the very
        # edges (that is why error metrics clip to the overlap region), so
        # coverage is asserted on the domain inset by one cell width.
        bounds = (0.0, 0.0, 50.0, 37.0)
        g = cover_domain(bounds, cells_across=23)
        w = g.cell_width
        rng = np.random.default_rng(1)
        xs = rng.uniform(bounds[0] + w, bounds[2] - w, 2000)
        ys = rng.uniform(bounds[1] + w, bounds[3] - w, 2000)
        _, _, inside = locate_many(g, xs, ys)
        assert inside.all()


class TestNeighborTable:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (7, 6)])
    def test_face_normal_oracle(self, shape):
        """Each entry is the cell one width away along its face normal; -1 off-grid."""
        nrows, ncols = shape
        g = HexGrid(ncols=ncols, nrows=nrows, r=0.7, x0=1.0, y0=2.0)
        X, Y = hex_centers(g)
        x, y = X.ravel(), Y.ravel()
        cells = np.arange(ncols * nrows)
        table = neighbor_table(g, cells % ncols, cells // ncols)
        assert table.shape == (6, cells.size)
        for f, (nx, ny) in enumerate(FACE_NORMALS):
            tx = x + g.cell_width * nx
            ty = y + g.cell_width * ny
            hit = np.hypot(x[None, :] - tx[:, None], y[None, :] - ty[:, None]) < 1e-9
            expected = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
            assert np.array_equal(table[f], expected)

    def test_subset_rows_match_full_table(self):
        g = HexGrid(ncols=5, nrows=6, r=1.0, x0=0.0, y0=0.0)
        cells = np.arange(30)
        full = neighbor_table(g, cells % 5, cells // 5)
        pick = np.array([29, 0, 7, 12, 7])
        assert np.array_equal(neighbor_table(g, pick % 5, pick // 5), full[:, pick])


    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (2, 3), (7, 6), (8, 9)])
    def test_face_slices_read_the_table(self, shape):
        """Reading a flat layout of cell indices through each face's slices
        gives, for every cell and face, the neighbor that the point query
        gives; neighbors off the grid read the pads' -1."""
        nrows, ncols = shape
        g = HexGrid(ncols=ncols, nrows=nrows, r=1.0, x0=0.0, y0=0.0)
        cells = np.arange(ncols * nrows)
        table = neighbor_table(g, cells % ncols, cells // ncols).reshape(6, nrows, ncols)
        layout = ParityLayout(nrows, ncols)
        flat = np.full(layout.size, -1)
        for parity, rows in enumerate(layout.rows(flat)):
            rows[...] = cells.reshape(nrows, ncols)[parity::2]
        assert np.array_equal(layout.cells(flat), cells.reshape(nrows, ncols))
        assert np.array_equal(layout.cell_index(np.flatnonzero(flat >= 0)), flat[flat >= 0])
        assert len(layout.faces) == 6
        # The two spans cut the slots in two, each holding its parity's rows.
        even, odd = layout.spans
        assert (even.start, even.stop, odd.stop) == (0, odd.start, layout.size)
        for span, rows in zip(layout.spans, layout.rows(flat)):
            assert np.array_equal(np.sort(flat[span][flat[span] >= 0]), np.sort(rows.ravel()))
        for f, pairs in enumerate(layout.faces):
            read = np.full(layout.size, -2)
            for span, (cells_at, neighbors) in zip(layout.spans, pairs):
                assert span.start <= cells_at.start and cells_at.stop <= span.stop
                # One contiguous stretch each: no strided path.
                for part in (cells_at, neighbors):
                    assert type(part) is slice and part.step is None
                    assert 0 <= part.start <= part.stop <= layout.size
                read[cells_at] = flat[neighbors]
            assert np.array_equal(layout.cells(read), table[f])


def test_hex_vertices_pointy_top():
    verts = hex_vertices(0.0, 0.0, 2.0)
    assert len(verts) == 6
    assert verts[0] == pytest.approx((0.0, 2.0))
    for vx, vy in verts:
        assert math.hypot(vx, vy) == pytest.approx(2.0, rel=1e-12)
