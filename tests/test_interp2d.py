import bisect
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexport import interp1d, interp2d
from hexport.errors import (
    IrregularGridError,
    OutOfBoundsError,
    SparseDataWarning,
    TooSparseError,
)
from hexport.grid_io import RectRaster
from hexport.interp1d import (
    ENO,
    OF,
    Knots1D,
    KnotTable,
    _newton_coeffs,
    _newton_eval,
    _windows,
    extend_1d,
    select_stencils,
)
from hexport.interp2d import (
    CrsExtension,
    Extension2D,
    IdExtension,
    RowLikeGrid,
    build_row_like_grid,
    extend_2d,
    extend_crs,
    extend_id,
    make_extension,
)


def raster_from_fn(fn, bounds, ncols, nrows, nodata=-9999.0):
    xmin, ymin, xmax, ymax = bounds
    cs = (xmax - xmin) / ncols
    xs = xmin + (np.arange(ncols) + 0.5) * cs
    ys = ymin + (nrows - np.arange(nrows) - 0.5) * cs
    X, Y = np.meshgrid(xs, ys)
    return RectRaster(values=fn(X, Y), xll=xmin, yll=ymin, cellsize=cs, nodata=nodata)


def composed_reference(grid, x, y, method):
    """Algorithm spelled out with the public 1D operation only."""
    ys = list(grid.ys)
    m = len(ys)
    pos = bisect.bisect_left(ys, y)
    at_knot = pos < m and ys[pos] == y
    if at_knot and method == ENO:
        return extend_1d(grid.rows[pos], x, method)
    if at_knot:
        lo, hi = max(0, pos - 3), min(m - 1, pos + 3)
    elif y < ys[0]:
        lo, hi = 0, min(3, m - 1)
    elif y > ys[-1]:
        lo, hi = max(0, m - 4), m - 1
    else:
        k = pos - 1
        lo, hi = max(0, k - 2), min(m - 1, k + 3)
    fs = [extend_1d(grid.rows[j], x, method) for j in range(lo, hi + 1)]
    return extend_1d(Knots1D(np.array(ys[lo : hi + 1]), np.array(fs)), y, method)


def random_row_like_grid(rng, cubic=None):
    m = int(rng.integers(4, 8))
    ys = np.cumsum(rng.uniform(0.4, 1.2, m))
    rows = []
    for y in ys:
        nj = int(rng.integers(4, 10))
        xs = np.cumsum(rng.uniform(0.3, 1.5, nj)) + rng.uniform(-0.5, 0.5)
        if cubic is None:
            fs = rng.uniform(-3, 3, nj)
        else:
            fs = cubic(xs, y)
        rows.append(Knots1D(xs, fs))
    return RowLikeGrid(ys=ys, rows=tuple(rows))


class TestBuildRowLikeGrid:
    def test_2x2_centers(self):
        r = RectRaster(values=[[1.0, 2.0], [3.0, 4.0]], xll=0.0, yll=0.0, cellsize=10.0)
        g = build_row_like_grid(r)
        assert g.nrows == 2
        assert list(g.ys) == [5.0, 15.0]
        assert list(g.rows[0].xs) == [5.0, 15.0]
        assert list(g.rows[0].fs) == [3.0, 4.0]  # bottom raster row first
        assert list(g.rows[1].fs) == [1.0, 2.0]

    def test_middle_nodata_leaves_two_knots(self):
        vals = np.arange(9.0).reshape(3, 3) + 1.0
        vals[1, 1] = -9999.0
        g = build_row_like_grid(RectRaster(values=vals, xll=0, yll=0, cellsize=1.0))
        assert len(g.rows[1]) == 2

    def test_fully_nodata_row_absent(self):
        vals = np.ones((3, 3))
        vals[1, :] = -9999.0
        g = build_row_like_grid(RectRaster(values=vals, xll=0, yll=0, cellsize=1.0))
        assert g.nrows == 2
        assert g.dropped_rows == 0

    def test_single_knot_row_dropped_with_warning(self):
        vals = np.ones((3, 3))
        vals[1, :2] = -9999.0
        with pytest.warns(SparseDataWarning):
            g = build_row_like_grid(RectRaster(values=vals, xll=0, yll=0, cellsize=1.0))
        assert g.nrows == 2
        assert g.dropped_rows == 1

    def test_too_sparse(self):
        vals = np.full((3, 3), -9999.0)
        vals[0, :] = 1.0
        with pytest.raises(TooSparseError):
            build_row_like_grid(RectRaster(values=vals, xll=0, yll=0, cellsize=1.0))


def per_row_grid(raster):
    """The per-row loop that build_row_like_grid's one pass replaced, kept
    as its oracle: one mask, one height and one checked Knots1D per row."""
    xs_all = raster.x_centers()
    ys, rows, dropped = [], [], 0
    for row in range(raster.nrows - 1, -1, -1):
        mask = raster.values[row] != raster.nodata
        count = int(mask.sum())
        if count < 2:
            dropped += count == 1
            continue
        ys.append(raster.y_center(row))
        rows.append(Knots1D(xs=xs_all[mask], fs=raster.values[row][mask]))
    if dropped:
        warnings.warn(f"dropped {dropped} raster rows with a single usable cell",
                      SparseDataWarning)
    if len(rows) < 2:
        raise TooSparseError("fewer than 2 usable rows after NODATA removal")
    return RowLikeGrid(ys=np.array(ys), rows=tuple(rows), dropped_rows=dropped)


def outcome(build, raster):
    """What a build gives: its grid or its error, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build(raster)
        except Exception as exc:  # the oracle's error is part of the contract
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


class TestOnePassBuild:
    """build_row_like_grid equals the per-row loop it replaced, bit for bit,
    down to which error and which warnings it raises."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nrows=st.integers(1, 9),
        ncols=st.integers(1, 9),
        holes=st.sampled_from([0.0, 0.3, 0.6, 0.85]),
        # Mostly rasters that build; the rest fail each check in turn.
        geometry=st.sampled_from(["plain"] * 3 + ["x collides", "y collides", "x overflows"]),
        poison=st.sampled_from([None] * 3 + [np.nan, np.inf]),
    )
    def test_matches_the_per_row_loop(self, seed, nrows, ncols, holes, geometry, poison):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-3, 3, (nrows, ncols))
        vals[rng.uniform(0, 1, vals.shape) < holes] = -9999.0
        xll, yll = (float(v) for v in rng.uniform(-4, 4, 2))
        cellsize = float(rng.uniform(0.3, 2.0))
        if geometry == "x collides":
            xll, cellsize = 1e17, 1.0
        elif geometry == "y collides":
            yll, cellsize = 1e17, 1.0
        elif geometry == "x overflows":
            xll, cellsize = 1.7e308, 3e307
        r = RectRaster(values=vals, xll=xll, yll=yll, cellsize=cellsize)
        if poison is not None:  # the raster checks its values only when made
            r.values[rng.integers(nrows), rng.integers(ncols)] = poison
        got, got_warned = outcome(build_row_like_grid, r)
        want, want_warned = outcome(per_row_grid, r)
        assert got_warned == want_warned
        if isinstance(want, tuple):
            assert got == want
            return
        assert bits(got.ys) == bits(want.ys)
        assert (got.dropped_rows, got.short_rows) == (want.dropped_rows, want.short_rows)
        assert len(got.rows) == len(want.rows)
        for a, b in zip(got.rows, want.rows):
            assert isinstance(a, Knots1D)
            assert (bits(a.xs), bits(a.fs)) == (bits(b.xs), bits(b.fs))

    def test_colliding_centers_still_raise(self):
        """At x = 1e17 a unit cell is below the float spacing, so a row's
        centers collide and its abscissas are not strictly increasing."""
        r = RectRaster(values=np.ones((3, 4)), xll=1e17, yll=0.0, cellsize=1.0)
        with pytest.raises(ValueError, match="knot abscissas must be strictly increasing"):
            build_row_like_grid(r)

    def test_public_constructor_keeps_its_checks(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Knots1D(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            Knots1D(np.array([0.0, 1.0]), np.array([0.0, np.nan]))


class TestExtension2D:
    def test_cubic_product_reproduction(self):
        r = raster_from_fn(lambda x, y: x**3 * y**3, (0.5, 0.5, 10.5, 10.5), 10, 10)
        g = build_row_like_grid(r)
        ext = Extension2D(g, ENO)
        rng = np.random.default_rng(0)
        for _ in range(40):
            x = float(rng.uniform(1.0, 10.0))
            y = float(rng.uniform(1.0, 10.0))
            assert ext(x, y) == pytest.approx(x**3 * y**3, rel=1e-9)

    def test_eno_exact_at_grid_knots(self):
        rng = np.random.default_rng(1)
        g = random_row_like_grid(rng)
        ext = Extension2D(g, ENO)
        for j, row in enumerate(g.rows):
            got = ext.eval_line(row.xs, float(g.ys[j]))
            assert np.array_equal(got, row.fs)

    @pytest.mark.parametrize("method", [ENO, OF])
    def test_matches_composed_1d_reference(self, method):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_row_like_grid(rng)
            ext = Extension2D(g, method)
            xs_lo = min(r.xs[0] for r in g.rows)
            xs_hi = max(r.xs[-1] for r in g.rows)
            for t in range(60):
                x = float(rng.uniform(xs_lo - 1, xs_hi + 1))
                if t % 6 == 0:
                    y = float(g.ys[rng.integers(0, g.nrows)])
                else:
                    y = float(rng.uniform(g.ys[0] - 1, g.ys[-1] + 1))
                assert ext(x, y) == composed_reference(g, x, y, method)

    @pytest.mark.parametrize("method", [ENO, OF])
    def test_pi33_reproduction(self, method):
        rng = np.random.default_rng(3)
        for _ in range(10):
            coeff = rng.uniform(-1, 1, (4, 4))

            def cubic(x, y):
                acc = 0.0
                for p in range(4):
                    for q in range(4):
                        acc = acc + coeff[p, q] * x**p * y**q
                return acc

            g = random_row_like_grid(rng, cubic=cubic)
            ext = Extension2D(g, method)
            for _ in range(15):
                x = float(rng.uniform(0, 6))
                y = float(rng.uniform(g.ys[0] - 0.5, g.ys[-1] + 0.5))
                want = cubic(x, y)
                assert ext(x, y) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_of_recovers_corrupted_knot_better(self):
        rng = np.random.default_rng(4)
        err_of = []
        err_eno = []
        for _ in range(25):
            r = raster_from_fn(
                lambda x, y: 1.0 / ((1 + x * x) * (1 + y * y)), (-3, -3, 3, 3), 12, 12
            )
            vals = r.values.copy()
            i, j = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            true = vals[i, j]
            vals[i, j] = true + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1.0, 2.0))
            bad = RectRaster(values=vals, xll=-3, yll=-3, cellsize=0.5)
            g = build_row_like_grid(bad)
            x = float(bad.x_centers()[j])
            y = float(bad.y_center(i))
            err_of.append(abs(Extension2D(g, OF)(x, y) - true))
            err_eno.append(abs(Extension2D(g, ENO)(x, y) - true))
        assert np.mean(err_of) < np.mean(err_eno)

    def test_y_continuity_census(self):
        # Continuity across rows along a vertical line: jumps between dense
        # samples must vanish as the sampling tightens, except at the
        # finitely many x where stencil selection flips.
        rng = np.random.default_rng(5)
        g = random_row_like_grid(rng)
        ext = Extension2D(g, ENO)
        x = float(np.mean([r.xs[2] for r in g.rows]))
        ys = np.linspace(float(g.ys[0]), float(g.ys[-1]), 2001)
        vals = np.array([ext(x, float(y)) for y in ys])
        jumps = np.abs(np.diff(vals))
        scale = np.ptp(vals) + 1e-30
        big = int((jumps > 0.05 * scale).sum())
        assert big == 0

    def test_extend_2d_wrapper(self):
        r = raster_from_fn(lambda x, y: x + 2 * y, (0, 0, 8, 8), 8, 8)
        g = build_row_like_grid(r)
        assert extend_2d(g, 3.3, 4.4, ENO) == pytest.approx(3.3 + 8.8, rel=1e-12)


class TestCrs:
    def test_constant(self):
        r = raster_from_fn(lambda x, y: 0 * x + 0 * y + 7.0, (0, 0, 6, 6), 6, 6)
        ext = CrsExtension(build_row_like_grid(r))
        for x, y in [(1.0, 1.0), (3.3, 2.2), (-0.5, 6.5)]:
            assert ext(x, y) == pytest.approx(7.0, rel=1e-14)

    def test_exact_at_knots(self):
        rng = np.random.default_rng(6)
        vals = rng.uniform(-5, 5, (6, 6))
        r = RectRaster(values=vals, xll=0, yll=0, cellsize=1.0)
        g = build_row_like_grid(r)
        ext = CrsExtension(g)
        for j, row in enumerate(g.rows):
            for i, x in enumerate(row.xs):
                assert ext(float(x), float(g.ys[j])) == pytest.approx(float(row.fs[i]), rel=1e-12)

    def test_linear_reproduction(self):
        r = raster_from_fn(lambda x, y: 2 * x - 3 * y + 1, (0, 0, 8, 8), 8, 8)
        ext = CrsExtension(build_row_like_grid(r))
        rng = np.random.default_rng(7)
        for _ in range(30):
            x, y = float(rng.uniform(0, 8)), float(rng.uniform(0, 8))
            assert ext(x, y) == pytest.approx(2 * x - 3 * y + 1, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("ncols, nrows", [(2, 5), (5, 2), (2, 2)])
    def test_grids_two_knots_wide_reproduce_linear_data(self, ncols, nrows):
        """Two knots along an axis: both one-sided tangents are their one
        difference, so linear data is still reproduced, inside and beyond
        the knot hull."""
        r = raster_from_fn(lambda x, y: 2 * x - 3 * y + 1, (0, 0, ncols, nrows), ncols, nrows)
        grid = build_row_like_grid(r)
        ext = CrsExtension(grid)
        if ncols == 2:
            assert np.array_equal(ext._tx, np.full((nrows, 2), 2.0))
        rng = np.random.default_rng(8)
        xs = rng.uniform(-1, ncols + 1, 9)
        ys = rng.uniform(-1, nrows + 1, 7)
        expected = 2 * xs[None, :] - 3 * ys[:, None] + 1
        assert np.allclose(ext.eval_line(xs, ys), expected, rtol=1e-12, atol=1e-12)
        for y, row in zip(grid.ys, grid.rows):
            assert ext.eval_line(row.xs, y).tolist() == row.fs.tolist()

    def test_irregular_grid_rejected(self):
        vals = np.ones((4, 4))
        vals[2, 1] = -9999.0
        r = RectRaster(values=vals, xll=0, yll=0, cellsize=1.0)
        with pytest.raises(IrregularGridError):
            CrsExtension(build_row_like_grid(r))

    def test_extend_crs_wrapper(self):
        r = raster_from_fn(lambda x, y: x + y, (0, 0, 5, 5), 5, 5)
        g = build_row_like_grid(r)
        assert extend_crs(g, 2.0, 3.0) == pytest.approx(5.0, rel=1e-12)


class TestId:
    def test_cell_center_lookup(self):
        vals = np.arange(12.0).reshape(3, 4)
        r = RectRaster(values=vals, xll=0, yll=0, cellsize=2.0)
        for row in range(3):
            for col in range(4):
                x = float(r.x_centers()[col])
                y = float(r.y_center(row))
                assert extend_id(r, x, y) == vals[row, col]

    def test_epsilon_inside_edge(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]])
        r = RectRaster(values=vals, xll=0, yll=0, cellsize=1.0)
        eps = 1e-9
        assert extend_id(r, 1.0 - eps, 0.5) == 3.0
        assert extend_id(r, 1.0 + eps, 0.5) == 4.0

    def test_out_of_bounds(self):
        r = RectRaster(values=[[1.0]], xll=0, yll=0, cellsize=1.0)
        with pytest.raises(OutOfBoundsError):
            extend_id(r, 2.0, 0.5)

    def test_degree_zero_accuracy(self):
        r = raster_from_fn(lambda x, y: x + 0 * y, (0, 0, 4, 4), 4, 4)
        # linear data is not reproduced between centers: constant per cell
        assert extend_id(r, 0.9, 2.0) == extend_id(r, 0.6, 2.0) == 0.5
        assert extend_id(r, 0.9, 2.0) != 0.9

    def test_fill_outside(self):
        r = RectRaster(values=[[1.0, 2.0]], xll=0, yll=0, cellsize=1.0)
        got = IdExtension(r).eval_line(np.array([-0.5, 0.5, 2.5]), 0.5, fill=-1.0)
        assert list(got) == [-1.0, 1.0, -1.0]

    def test_far_points_are_outside_without_a_cast_warning(self):
        # Cell indices beyond int64 are decided on floats, before the cast.
        r = RectRaster(values=[[1.0, 2.0]], xll=0, yll=0, cellsize=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = IdExtension(r).eval_line(np.array([-1e300, 0.5, 1e300]), [0.5, -1e300], fill=-1.0)
            with pytest.raises(OutOfBoundsError):
                extend_id(r, 1e300, 0.5)
        assert got.tolist() == [[-1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]]


class TestMakeExtension:
    @pytest.mark.parametrize("method, kind", [
        ("id", IdExtension), ("crs", CrsExtension), (ENO, Extension2D), (OF, Extension2D),
    ])
    def test_method_picks_the_extension(self, method, kind):
        r = raster_from_fn(lambda x, y: x * y + y, (0, 0, 8, 8), 8, 8)
        with mock.patch.object(interp2d, "build_row_like_grid",
                               wraps=build_row_like_grid) as built:
            ext = make_extension(r, method)
        assert type(ext) is kind
        assert built.call_count == (method != "id")
        assert getattr(ext, "method", method) == method


class TestBatchedLines:
    """A batched eval_line equals stacking scalar calls, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nrows=st.integers(2, 9),
        ncols=st.integers(2, 9),
        holes=st.sampled_from([0.0, 0.2, 0.45, 0.7]),
    )
    def test_batched_equals_stacked_scalar_calls(self, seed, nrows, ncols, holes):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-3, 3, (nrows, ncols))
        vals[rng.uniform(0, 1, vals.shape) < holes] = -9999.0
        r = RectRaster(
            values=vals, xll=float(rng.uniform(-4, 4)), yll=float(rng.uniform(-4, 4)),
            cellsize=float(rng.uniform(0.3, 2.0)),
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SparseDataWarning)
                g = build_row_like_grid(r)
        except TooSparseError:
            assume(False)
        xmin, ymin, xmax, ymax = r.bounds
        xs = np.concatenate([rng.uniform(xmin - 2, xmax + 2, 12), r.x_centers()])
        # Knot rows (one twice), both sides of the row hull, and between rows.
        ys = np.concatenate([
            g.ys, g.ys[:1], [g.ys[0] - 1.3, g.ys[-1] + 0.6, ymin - 2, ymax + 2],
            rng.uniform(g.ys[0], g.ys[-1], 10),
        ])
        rng.shuffle(ys)
        exts = [Extension2D(g, ENO), Extension2D(g, OF)]
        if not (vals == -9999.0).any():
            exts.append(CrsExtension(g))
        for ext in exts:
            want = np.stack([ext.eval_line(xs, float(y)) for y in ys])
            got = ext.eval_line(xs, ys)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        ext = IdExtension(r)
        want = np.stack([ext.eval_line(xs, float(y), fill=-1.0) for y in ys])
        got = ext.eval_line(xs, ys, fill=-1.0)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_shapes(self):
        r = raster_from_fn(lambda x, y: x * y, (0, 0, 6, 6), 6, 6)
        g = build_row_like_grid(r)
        xs = np.linspace(0, 6, 7)
        for ext in (Extension2D(g, ENO), Extension2D(g, OF), CrsExtension(g), IdExtension(r)):
            assert ext.eval_line(xs, 2.2).shape == (7,)
            assert ext.eval_line(xs, np.array([2.2])).shape == (1, 7)
            assert ext.eval_line(xs, np.array([0.5, 2.2, 3.0])).shape == (3, 7)
            assert ext.eval_line(xs, np.empty(0)).shape == (0, 7)
        with pytest.raises(ValueError):
            Extension2D(g, ENO).eval_line(xs, np.ones((2, 2)))


def sweep_row(knots, method, x):
    """One knot row at points x, evaluated on its own: a copy of the
    per-row evaluation that the flat knot table replaced.  Its interval
    stencils are the row's one-row table pieces, which test_interp1d checks
    against the scalar scan bit for bit."""
    xs, fs = knots.xs, knots.fs
    n = xs.size
    pos = np.searchsorted(xs, x)
    at_knot = (pos < n) & (xs[np.minimum(pos, n - 1)] == x)
    if n < 4:
        out = np.array(_newton_eval(_newton_coeffs(list(xs), list(fs)), list(xs), x))
        out[at_knot] = fs[pos[at_knot]]
        return out
    table = KnotTable([knots], method)  # its interval pieces are 1..n-1
    c, cx = table.c[:, 1:n].T, table.x[:, 1:n].T

    def horner(k, at):
        return _newton_eval(c[k].T, cx[k].T, at)

    out = horner(np.clip(pos - 1, 0, n - 2), x)
    for side, end in ((x < xs[0], slice(0, 4)), (x > xs[-1], slice(n - 4, n))):
        ends = _newton_coeffs(list(xs[end]), list(fs[end]))
        out[side] = _newton_eval(ends, list(xs[end][:3]), x[side])
    j = pos[at_knot]
    if method == ENO:
        out[at_knot] = fs[j]
    else:
        at = x[at_knot]
        out[at_knot] = 0.5 * (horner(np.clip(j - 1, 0, n - 2), at)
                              + horner(np.clip(j, 0, n - 2), at))
    return out


def sweep_eval_line(grid, method, xs, lines):
    """A copy of the bottom-up sweep that the flat path replaced: each knot
    row evaluated once on its own, one cross-row selection per interval on
    heights shared by all columns, and a Horner step per group of lines."""
    ys, m = grid.ys, grid.ys.size
    keys = np.searchsorted(ys, lines) + np.searchsorted(ys, lines, "right") - 1
    rows = {j: sweep_row(row, method, xs) for j, row in enumerate(grid.rows)}

    def stencil(k):
        wx, valid, at = _windows(ys, 0, m, np.array([k]))
        wf = np.array([rows[j] for j in at[:, 0].tolist()])
        return select_stencils(wx, wf, valid, method)[1:]

    out = np.empty((lines.size, xs.size))
    for key in sorted(set(keys.tolist())):
        idx = np.flatnonzero(keys == key)
        at = lines[idx, None]
        if key % 2 == 0 and (method == ENO or m < 4):
            out[idx] = rows[key // 2]
        elif key % 2 == 0:
            j = key // 2
            left, right = max(j - 1, 0), min(j, m - 2)
            vl = _newton_eval(*stencil(left), at)
            vr = _newton_eval(*stencil(right), at) if right != left else vl
            out[idx] = 0.5 * (vl + vr)
        elif m < 4 or key in (-1, 2 * m - 1):
            fixed = range(m) if m < 4 else range(4) if key == -1 else range(m - 4, m)
            nodes = [ys[i] for i in fixed]
            coeffs = _newton_coeffs(nodes, [rows[i] for i in fixed])
            out[idx] = _newton_eval(coeffs, nodes, at)
        else:
            out[idx] = _newton_eval(*stencil(key // 2), at)
    return out


class TestFlatPath:
    """eval_line equals the per-row, per-interval sweep it replaced, bit for bit."""

    @pytest.mark.parametrize("gaps", [(1.0,), (3.0,), (3.0, 1.0), (1.0, 3.0)])
    def test_short_grids_keep_signed_zeros(self, gaps):
        # On 2-3 knot rows every cross-row piece is their interpolant, padded.
        # Read at the knots, the rows' columns take every tuple of a pool of
        # signed zeros and subnormals; over gaps of 3, -5e-324 differences
        # underflow to -0.0, so zero results carry signs a wrong padding flips.
        pool = (0.0, -0.0, 5e-324, -5e-324, -1e-323, 1.0)
        ys = np.cumsum((0.5, *gaps))
        V = np.array(list(itertools.product(pool, repeat=ys.size))).T
        xs = np.arange(float(V.shape[1]))
        grid = RowLikeGrid(ys=ys, rows=[Knots1D(xs, v) for v in V])
        lines = np.concatenate([ys, ys - 0.25, ys + 0.5, [ys[0] - 1e6, ys[-1] + 1e6]])
        for method in (ENO, OF):
            got = Extension2D(grid, method).eval_line(xs, lines)
            assert got.tobytes() == sweep_eval_line(grid, method, xs, lines).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.one_of(st.sampled_from([2, 3, 4, 5]), st.integers(4, 12)),
                         min_size=2, max_size=9),
        holes=st.sampled_from([None, 0.0, 0.3, 0.6]),
        values=st.sampled_from(["uniform", "rounded", "signed_zeros"]),
        block=st.sampled_from([3, 40, 4096]),
    )
    def test_matches_the_sweep_it_replaced(self, seed, lengths, holes, values, block):
        # Grids are ragged rows of given lengths, or rasters with NODATA holes.
        rng = np.random.default_rng(seed)
        if holes is None:
            rows = []
            for n in lengths:
                xs = np.cumsum(rng.uniform(0.2, 1.5, n)) + rng.uniform(-2, 2)
                rows.append(Knots1D(xs, rng.uniform(-3, 3, n)))
            grid = RowLikeGrid(ys=np.cumsum(rng.uniform(0.3, 1.5, len(rows))), rows=rows)
        else:
            vals = rng.uniform(-3, 3, (len(lengths), max(lengths)))
            vals[rng.uniform(0, 1, vals.shape) < holes] = -9999.0
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SparseDataWarning)
                    grid = build_row_like_grid(RectRaster(values=vals, xll=-1.0, yll=0.5,
                                                          cellsize=0.7))
            except TooSparseError:
                assume(False)
        if values == "rounded":  # ties in the stencil scores
            grid = RowLikeGrid(ys=grid.ys, rows=[Knots1D(r.xs, np.round(r.fs)) for r in grid.rows])
        elif values == "signed_zeros":
            # Zero results whose sign hangs on each Horner step: -0.0 next to
            # -5e-324 over a gap of 2 or more gives a -0.0 divided difference.
            pool, weight = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0], [2, 8, 2, 8, 1, 1]
            grid = RowLikeGrid(ys=4.0 * grid.ys, rows=[
                Knots1D(4.0 * r.xs, rng.choice(pool, r.fs.size, p=np.divide(weight, 22)))
                for r in grid.rows])
        knots = np.concatenate([row.xs for row in grid.rows])
        hull = knots.min() - 1.5, knots.max() + 1.5
        xs = np.concatenate([rng.choice(knots, 6), hull, rng.uniform(*hull, 6)])
        ys = grid.ys
        lines = np.concatenate([ys, ys[rng.integers(0, ys.size, 3)], [ys[0] - 0.8, ys[-1] + 2],
                                rng.uniform(ys[0] - 1, ys[-1] + 1, 6)])
        rng.shuffle(lines)
        for method in (ENO, OF):
            ext = Extension2D(grid, method)
            want = sweep_eval_line(grid, method, xs, lines)
            with mock.patch.object(interp1d, "_BLOCK", block):
                got = ext.eval_line(xs, lines)
                one = ext.eval_line(xs, float(lines[0]))
            assert got.tobytes() == want.tobytes()
            assert one.tobytes() == want[0].tobytes()
