import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexport import metrics
from hexport.errors import ConstraintInfeasibleError, GeometryMismatchError, SparseDataWarning
from hexport.grid_io import RectRaster
from hexport.hexgrid import locate_many
from hexport.interp2d import Extension2D, build_row_like_grid, make_extension
from hexport.metrics import (
    DEGRADE_LEVELS,
    RungeField,
    _coin_stream,
    _sample_points,
    _thin_indices,
    box_misfit,
    degrade_raster,
    extension_l1_errors,
    l1_errors,
    recovery_errors,
    runge_raster,
    write_report,
)
from hexport.porting import PortingConfig, port


class TestRungeRaster:
    def test_center_cell_value(self):
        r = runge_raster((-20, -20, 20, 20), 41, 41, 1.0)
        assert r.values[20, 20] == 1.0

    def test_figure_scale_input(self):
        r = runge_raster((-14, -14, 14, 14), 10, 10, 10.0)
        assert r.cellsize == pytest.approx(2.8)
        assert r.values.max() == pytest.approx(10.0 / (1 + 1.4**2) ** 2)

    def test_sr2_shape(self):
        r = runge_raster((-20, -20, 20, 20), 201, 201, 1.0)
        assert (r.ncols, r.nrows) == (201, 201)
        assert r.values[100, 100] == 1.0

    def test_box_the_cells_do_not_fill_is_refused(self):
        # 12 square cells across a width of 10 make 10 rows 8.33 high, not 10.
        with pytest.raises(ValueError, match=r"^bounds: 10 rows of square cells, 12 across "
                                             r"the width 10\.0, are 8\.33+4 high, not the "
                                             r"height 10\.0$"):
            runge_raster((-5, -5, 5, 5), 12, 10, 1.0)

    def test_tall_box_spans_its_rows(self):
        r = runge_raster((-6, -5, 6, 5), 12, 10, 1.0)
        assert r.bounds == (-6.0, -5.0, 6.0, 5.0)


@pytest.mark.parametrize("stretch, fits", [
    (0.0, True), (5e-10, True), (-5e-10, True), (2e-9, False), (-2e-9, False), (0.5, False),
])
def test_box_misfit_has_a_relative_tolerance(stretch, fits):
    """Ten rows of cells 1e6 wide: a height off by a relative 1e-9 or less fits."""
    bounds = (0.0, 3.0, 12e6, 3.0 + 10e6 * (1.0 + stretch))
    assert (box_misfit(bounds, 12, 10) is None) == fits


class TestNonFiniteErrors:
    """Error sums or a normaliser past the float range are a data error
    (ValueError), raised without a numpy warning."""

    def test_extension_errors_against_an_overflowing_field(self):
        r = runge_raster((-6, -5, 6, 5), 12, 10, 1.0)
        assert np.isfinite(extension_l1_errors(r, field=RungeField(1e300))["eps_ea"])
        with pytest.raises(ValueError, match=r"^eps_ea is not finite: error sum inf over "
                                             r"normaliser \d"):
            extension_l1_errors(r, field=RungeField(1e308))

    def test_port_errors_against_an_overflowing_field(self):
        r = runge_raster((-6, -5, 6, 5), 12, 10, 1.0)
        hexraster = port(r, PortingConfig(method="eno", cells_across=10))
        with pytest.raises(ValueError, match=r"^eps_ha is not finite: error sum inf"):
            l1_errors(r, hexraster, field=RungeField(1e308))

    def test_overflowing_normaliser(self):
        # Every sample is 1e308: the error sums are 0, their normaliser inf.
        r = RectRaster(values=np.full((4, 4), 1e308), xll=0, yll=0, cellsize=1.0)
        with pytest.raises(ValueError, match=r"^eps_er is not finite: error sum 0\.0 over "
                                             r"normaliser inf$"):
            extension_l1_errors(r, method="id", quad=2)
        hexraster = port(r, PortingConfig(method="id", cells_across=5))
        with pytest.raises(ValueError, match=r"^eps_hr is not finite: error sum 0\.0 over "
                                             r"normaliser inf$"):
            l1_errors(r, hexraster, quad=2)

    def test_quotient_past_the_float_range(self):
        # Finite sums over a subnormal normaliser.
        r = RectRaster(values=np.full((4, 4), 5e-324), xll=0, yll=0, cellsize=1.0)
        with pytest.raises(ValueError, match=r"^eps_ea is not finite: error sum \d"):
            extension_l1_errors(r, method="id", field=RungeField(1e300), quad=2)


class TestL1Errors:
    def test_id_port_of_constant_is_zero(self):
        r = RectRaster(values=np.full((6, 6), 5.0), xll=0, yll=0, cellsize=1.0)
        h = port(r, PortingConfig(method="id", cells_across=9))
        out = l1_errors(r, h, quad=4)
        assert out["eps_hr"] == 0.0

    @pytest.mark.parametrize("power", [-530, 530])
    def test_same_bits_at_any_power_of_two_scale(self, power):
        # At 2**530 the unscaled squared hexagon offsets overflowed, so no
        # sample was inside and l1_errors found no overlap.
        def eps_hr(s):
            r = RectRaster(values=np.arange(1.0, 121.0).reshape(10, 12),
                           xll=-6.0 * s, yll=-5.0 * s, cellsize=s)
            return l1_errors(r, port(r, PortingConfig(method="id", cells_across=10)),
                             quad=2)["eps_hr"]

        assert eps_hr(2.0**power) == eps_hr(1.0) == 0.07844129554655871

    def test_nonnegative_and_field_keys(self, sr1, runge1, sr1_eno_ports):
        out = l1_errors(sr1, sr1_eno_ports[200], field=runge1, quad=4)
        assert set(out) == {"eps_hr", "eps_ha", "eps_ra"}
        assert all(v >= 0.0 for v in out.values())

    def test_quadrature_self_convergence(self, sr1, runge1, sr1_eno_ports):
        # The hex-vs-raster integrand is piecewise constant across hexagon
        # edges, so midpoint quadrature is first order: doubling the default
        # subsampling moves the epsilons by a few 1e-3 relative, and the
        # smooth-field eps_ha by much less.
        h = sr1_eno_ports[200]
        e8 = l1_errors(sr1, h, field=runge1, quad=8)
        e16 = l1_errors(sr1, h, field=runge1, quad=16)
        for key in e8:
            assert abs(e16[key] - e8[key]) / abs(e8[key]) < 1e-2
        assert abs(e16["eps_ha"] - e8["eps_ha"]) / e8["eps_ha"] < 1e-3


class TestObservedOrder:
    """The extension's L1 error against the Runge field a = 1 on [-20, 20]^2
    falls with the cell size h as h^p: about 4 for the bicubic ENO and OF,
    which reproduce cubics, and 3 for Catmull-Rom, which reproduces only
    quadratics.  p is observed between n = 161 and 321 cells a side."""

    @pytest.mark.parametrize("method, low, high", [("eno", 3.7, None), ("of", 3.4, None),
                                                   ("crs", 2.8, 3.6)])
    def test_order_between_161_and_321(self, method, low, high):
        field = RungeField(1.0)
        e = [extension_l1_errors(runge_raster((-20, -20, 20, 20), n, n, 1.0), method,
                                 field=field, quad=4)["eps_ea"] for n in (161, 321)]
        order = np.log2(e[0] / e[1])
        assert order >= low and (high is None or order <= high), order


def whole_lookup_l1_errors(raster, hexraster, field, quad):
    """l1_errors as it was before its banded lookup: one lookup over a
    meshgrid of every sample; kept as the oracle of the banded one."""
    xs, ys = _sample_points(raster, quad)
    X, Y = np.meshgrid(xs, ys)
    gr = np.repeat(np.repeat(raster.values, quad, axis=0), quad, axis=1).ravel()
    cols, rows, inside = locate_many(hexraster.to_grid(), X.ravel(), Y.ravel())
    gh = np.where(inside, hexraster.values[rows, cols], np.nan)
    mask = inside & (gr != raster.nodata) & (gh != hexraster.nodata)
    grm, ghm = gr[mask], gh[mask]
    gamma = np.abs(grm).sum()
    out = {"eps_hr": np.abs(grm - ghm).sum() / gamma}
    if field is not None:
        gm = field(X.ravel()[mask], Y.ravel()[mask])
        out["eps_ha"] = np.abs(gm - ghm).sum() / gamma
        out["eps_ra"] = np.abs(gm - grm).sum() / gamma
    return {k: float(v) for k, v in out.items()}


class TestBandedLookup:
    @pytest.mark.parametrize("band", [1, 100, None], ids=["one-row", "rows", "default"])
    @pytest.mark.parametrize("quad", [1, 4])
    def test_bands_keep_the_whole_lookups_bits(self, band, quad):
        """Bands of one sample row, of several or the default give the sums
        of one lookup over every sample, bit for bit, with holes in both
        rasters and samples outside the hexagons."""
        rng = np.random.default_rng(4)
        r = runge_raster((-6, -5, 6, 4), 12, 9, 1.0)
        r.values[rng.uniform(0, 1, r.values.shape) < 0.2] = r.nodata
        h = port(runge_raster((-6, -5, 6, 4), 12, 9, 1.0), PortingConfig("id", cells_across=9))
        h.values[rng.uniform(0, 1, h.values.shape) < 0.2] = h.nodata
        with mock.patch.object(metrics, "_LOOKUP_POINTS", band or metrics._LOOKUP_POINTS):
            for field in (None, RungeField(1.0)):
                got = l1_errors(r, h, field=field, quad=quad)
                want = whole_lookup_l1_errors(r, h, field, quad)
                assert {k: v.hex() for k, v in got.items()} == \
                    {k: v.hex() for k, v in want.items()}


class TestL1Edges:
    def test_disjoint_domains_raise(self):
        from hexport.errors import EmptyOverlapError
        from hexport.grid_io import HexRaster

        r = RectRaster(values=np.ones((4, 4)), xll=0, yll=0, cellsize=1.0)
        far = HexRaster(values=np.ones((3, 3)), x0=500.0, y0=500.0, r=1.0)
        with pytest.raises(EmptyOverlapError):
            l1_errors(r, far, quad=2)


def per_row_sweep(raster, method, field, quad):
    """extension_l1_errors as it swept before batching, one eval_line call
    per raster row, kept as the oracle of the batched sweep."""
    ext = make_extension(raster, method)
    xs, ys = _sample_points(raster, quad)
    sum_er = sum_ea = gamma = 0.0
    for row in range(raster.nrows):
        gr = np.repeat(raster.values[row], quad)
        valid = gr != raster.nodata
        if not valid.any():
            continue
        row_ys = ys[row * quad : (row + 1) * quad]
        for y, gt in zip(row_ys, ext.eval_line(xs, row_ys)):
            gamma += np.abs(gr[valid]).sum()
            sum_er += np.abs(gt[valid] - gr[valid]).sum()
            if field is not None:
                sum_ea += np.abs(gt[valid] - field(xs[valid], float(y))).sum()
    out = {"eps_er": float(sum_er / gamma)}
    if field is not None:
        out["eps_ea"] = float(sum_ea / gamma)
    return out


def assert_sweeps_agree(r, method, quad, block, fields):
    """extension_l1_errors with ``block`` points per eval_line call (None:
    the default) gives per_row_sweep's sums bit for bit with each field."""
    with warnings.catch_warnings(), \
            mock.patch.object(metrics, "_SWEEP_POINTS", block or metrics._SWEEP_POINTS):
        warnings.simplefilter("ignore", SparseDataWarning)
        for field in fields:
            got = extension_l1_errors(r, method, field=field, quad=quad)
            want = per_row_sweep(r, method, field, quad)
            assert {k: v.hex() for k, v in got.items()} == \
                {k: v.hex() for k, v in want.items()}


class TestExtensionErrors:
    @pytest.mark.parametrize("block", [None, 300, 50], ids=["default", "300", "50"])
    @pytest.mark.parametrize("quad", [1, 3])
    @pytest.mark.parametrize("method", ["eno", "of", "id"])
    def test_batched_sweep_matches_the_per_row_sweep(self, method, quad, block):
        """Blocks of raster rows give the per-row sweep's sums bit for bit,
        whether a block holds one row, several or all of them."""
        rng = np.random.default_rng(5)
        vals = rng.uniform(0.5, 3.0, (60, 12))
        vals[rng.uniform(0, 1, vals.shape) < 0.3] = -9999.0
        vals[[0, 3, 4, 37, 59]] = -9999.0  # all-NODATA rows, both ends included
        vals[[8, 25], 1:] = -9999.0  # one cell left: dropped from the grid, still summed
        r = RectRaster(values=vals, xll=-6.0, yll=-10.0, cellsize=0.5)
        assert_sweeps_agree(r, method, quad, block, (None, RungeField(1.0)))

    @pytest.mark.parametrize("block", [None, 300, 50], ids=["default", "300", "50"])
    @pytest.mark.parametrize("quad", [2, 8])
    @pytest.mark.parametrize("method", ["eno", "of"])
    def test_batched_sweep_with_nodata_in_every_row(self, method, quad, block):
        """With a field and a hole in every raster row, each row's lines are
        reduced over a compacted subset of columns; the sums still keep the
        per-row sweep's bits."""
        rng = np.random.default_rng(8)
        vals = rng.uniform(0.5, 3.0, (30, 16))
        vals[rng.uniform(0, 1, vals.shape) < 0.2] = -9999.0
        vals[np.arange(30), rng.integers(0, 16, 30)] = -9999.0
        r = RectRaster(values=vals, xll=-4.0, yll=-7.5, cellsize=0.5)
        assert (r.values == r.nodata).any(axis=1).all()
        assert_sweeps_agree(r, method, quad, block, (RungeField(1.0),))

    def test_dense_raster_small_error(self):
        r = runge_raster((-14, -14, 14, 14), 100, 100, 10.0)
        out = extension_l1_errors(r, "eno", field=RungeField(10.0), quad=4)
        assert out["eps_ea"] < 0.05

    def test_id_matches_raster_exactly(self):
        r = runge_raster((-5, -5, 5, 5), 12, 12, 1.0)
        out = extension_l1_errors(r, "id", quad=4)
        assert out["eps_er"] == 0.0


class TestDegrade:
    def test_m1_n1_identity(self):
        r = runge_raster((-5, -5, 5, 5), 12, 12, 1.0)
        d = degrade_raster(r, 1, 1, seed=3)
        assert d == r

    def test_level_table(self):
        assert DEGRADE_LEVELS[1] == (3, 3)
        assert DEGRADE_LEVELS[5] == (5, 5)

    def test_gap_bound_alpha5(self):
        r = RectRaster(values=np.ones((30, 30)), xll=0, yll=0, cellsize=10.0)
        d = degrade_raster(r, *DEGRADE_LEVELS[5], seed=11)
        kept_rows = np.nonzero((d.values != d.nodata).any(axis=1))[0]
        assert kept_rows[0] == 0 and kept_rows[-1] == 29
        assert (np.diff(kept_rows) * 10.0 <= 50.0).all()

    def test_invalid_params(self):
        r = RectRaster(values=np.ones((4, 4)), xll=0, yll=0, cellsize=1.0)
        with pytest.raises(ConstraintInfeasibleError):
            degrade_raster(r, 0, 3)
        with pytest.raises(ConstraintInfeasibleError):
            degrade_raster(r, 3, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 6),
        n=st.integers(1, 6),
    )
    def test_postconditions_property(self, seed, m, n):
        r = RectRaster(values=np.ones((17, 13)), xll=0, yll=0, cellsize=2.0)
        d = degrade_raster(r, m, n, seed=seed)
        kept = d.values != d.nodata
        rows = np.nonzero(kept.any(axis=1))[0]
        assert rows[0] == 0 and rows[-1] == 16
        assert (np.diff(rows) <= m).all()
        for row in rows:
            cols = np.nonzero(kept[row])[0]
            assert cols[0] == 0 and cols[-1] == 12
            assert (np.diff(cols) <= n).all()

    def test_deterministic(self):
        r = runge_raster((-5, -5, 5, 5), 20, 20, 1.0)
        a = degrade_raster(r, 4, 3, seed=9)
        b = degrade_raster(r, 4, 3, seed=9)
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(
        nrows=st.integers(1, 40),
        ncols=st.integers(1, 40),
        m=st.integers(1, 7),
        n=st.integers(1, 7),
        seed=st.integers(0, 10**6),
        holes=st.floats(0.0, 0.5),
    )
    def test_matches_scalar_scan(self, nrows, ncols, m, n, seed, holes):
        values = np.arange(nrows * ncols, dtype=float).reshape(nrows, ncols)
        values[np.random.default_rng(seed).random((nrows, ncols)) < holes] = -1.0
        r = RectRaster(values=values, xll=0, yll=0, cellsize=1.0, nodata=-1.0)
        got = degrade_raster(r, m, n, seed=seed)
        want = scalar_degrade(r, m, n, seed)
        assert got.values.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 700), min_size=1, max_size=4),
        max_gap=st.integers(1, 7),
        seed=st.integers(0, 10**6),
    )
    def test_generator_ends_where_scalar_scan_does(self, counts, max_gap, seed):
        # Consecutive scans read one coin stream, across its blocks: each
        # keeps what the scalar scan keeps and reads as many coins.
        coins = Counted(_coin_stream(np.random.Generator(np.random.PCG64(seed))))
        scalar = Counting(np.random.PCG64(seed))
        for count in counts:
            coins.read = Counting.total = 0
            kept = _thin_indices(count, max_gap, coins)
            assert kept.tolist() == scalar_thin(count, max_gap, scalar).tolist()
            assert coins.read == Counting.total

    def test_generator_calls_per_scan_not_per_cell(self, monkeypatch):
        monkeypatch.setattr(np.random, "Generator", Counting)
        Counting.total = 0
        r = RectRaster(values=np.ones((200, 150)), xll=0, yll=0, cellsize=1.0)
        d = degrade_raster(r, *DEGRADE_LEVELS[3], seed=4)
        scans = 1 + int((d.values != d.nodata).any(axis=1).sum())
        assert 1 <= Counting.total <= scans

    @pytest.mark.parametrize("level", sorted(DEGRADE_LEVELS))
    def test_coin_blocks_run_out_mid_raster(self, level, monkeypatch):
        values = np.arange(130 * 130, dtype=float).reshape(130, 130)
        r = RectRaster(values=values, xll=0, yll=0, cellsize=1.0)
        want = scalar_degrade(r, *DEGRADE_LEVELS[level], level)
        monkeypatch.setattr(np.random, "Generator", Counting)
        Counting.total = 0
        got = degrade_raster(r, *DEGRADE_LEVELS[level], seed=level)
        assert Counting.total > 1
        assert got.values.tobytes() == want.tobytes()

    def test_memory_per_cell(self):
        # Peak bytes per cell over the input: the output raster, 8 B/cell,
        # plus its validation masks; the coin blocks and scans are O(width).
        # A first call's lazy imports are no cost per cell.
        degrade_raster(RectRaster(values=np.ones((4, 4)), xll=0, yll=0, cellsize=1.0), 2, 2)
        per_cell = {}
        for size in (300, 1000):
            r = RectRaster(values=np.ones((size, size)), xll=0, yll=0, cellsize=1.0)
            tracemalloc.start()
            try:
                degrade_raster(r, *DEGRADE_LEVELS[1], seed=5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            per_cell[size] = peak / size**2
        assert per_cell[1000] <= min(per_cell[300], 11.0)


class Counting(np.random.Generator):
    """A generator that counts the ``integers`` calls of all its instances."""

    total = 0

    def integers(self, *args, **kwargs):
        Counting.total += 1
        return super().integers(*args, **kwargs)


class Counted:
    """An iterator that counts the items read through it."""

    def __init__(self, items):
        self.items = iter(items)
        self.read = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self.items)
        self.read += 1
        return item


def scalar_thin(count, max_gap, rng):
    """The reference line scan: one scalar coin per unforced index."""
    if count <= 2:
        return np.arange(count)
    kept = [0]
    for j in range(1, count - 1):
        if j - kept[-1] == max_gap or rng.integers(0, 2) == 1:
            kept.append(j)
    kept.append(count - 1)
    return np.array(kept)


def scalar_degrade(raster, m, n, seed):
    """Degraded values of ``degrade_raster`` drawn by the reference scan."""
    rng = np.random.Generator(np.random.PCG64(seed))
    values = raster.values.copy()
    kept_rows = scalar_thin(raster.nrows, m, rng)
    dropped = np.ones(raster.nrows, dtype=bool)
    dropped[kept_rows] = False
    values[dropped] = raster.nodata
    for row in kept_rows:
        keep = np.zeros(raster.ncols, dtype=bool)
        keep[scalar_thin(raster.ncols, n, rng)] = True
        values[row, ~keep] = raster.nodata
    return values


class TestRecovery:
    def test_identical_rasters_give_zero(self):
        r = runge_raster((-5, -5, 5, 5), 10, 10, 1.0)
        out = recovery_errors(r, r)
        assert out == {"rmse": 0.0, "max_abs": 0.0, "eliminated": 0}

    def test_geometry_mismatch(self):
        a = runge_raster((-5, -5, 5, 5), 10, 10, 1.0)
        b = runge_raster((-5, -5, 5, 5), 11, 11, 1.0)
        with pytest.raises(GeometryMismatchError):
            recovery_errors(a, b)

    def test_cubic_field_recovered_through_holes(self):
        xs = np.arange(30) + 0.5
        ys = (30 - np.arange(30) - 0.5)
        X, Y = np.meshgrid(xs, ys)
        vals = 0.001 * X**3 - 0.01 * X * Y + 0.002 * Y**3 + 1.0
        basis = RectRaster(values=vals, xll=0, yll=0, cellsize=1.0)
        for alpha in (1, 3, 5):
            d = degrade_raster(basis, *DEGRADE_LEVELS[alpha], seed=alpha)
            out = recovery_errors(basis, d)
            assert out["rmse"] < 1e-9
            assert out["max_abs"] < 1e-9

    def test_sparser_degradation_hurts_more_on_average(self):
        basis = runge_raster((-20, -20, 20, 20), 60, 60, 1.0)
        r1 = [
            recovery_errors(basis, degrade_raster(basis, 3, 3, seed=s))["rmse"]
            for s in range(8)
        ]
        r5 = [
            recovery_errors(basis, degrade_raster(basis, 5, 5, seed=s))["rmse"]
            for s in range(8)
        ]
        assert np.mean(r5) > np.mean(r1)

    def test_hex_recovery_same_order_as_knot_rmse(self):
        # Porting the basis and the degraded raster and comparing the two hex
        # rasters must land in the same error decade as the knot-level RMSE.
        basis = runge_raster((-20, -20, 20, 20), 50, 50, 1.0)
        d = degrade_raster(basis, 3, 3, seed=2)
        knot = recovery_errors(basis, d)["rmse"]
        h_basis = port(basis, PortingConfig(method="eno", cells_across=60))
        h_deg = port(d, PortingConfig(method="eno", cells_across=60))
        diff = h_basis.values - h_deg.values
        hex_rmse = float(np.sqrt(np.mean(diff * diff)))
        assert np.isfinite(hex_rmse)
        assert 0.1 * knot <= hex_rmse <= 10.0 * knot


def truncate_rows(raster):
    """Cut every third inner knot row to 2, 3, 4 or 5 knots in turn.

    Gives short rows (degraded interpolants) and rows whose ENO/OF
    candidates are cut at both ends.
    """
    v = raster.values.copy()
    kept = np.flatnonzero((v != raster.nodata).any(axis=1))
    for i, row in enumerate(kept[1:-1:3]):
        cols = np.flatnonzero(v[row] != raster.nodata)
        v[row, cols[2 + i % 4 :]] = raster.nodata
    return RectRaster(values=v, xll=raster.xll, yll=raster.yll,
                      cellsize=raster.cellsize, nodata=raster.nodata)


def degraded_runge(level, truncated=False):
    basis = runge_raster((-5, -5, 5, 5), 60, 60, 1.0)
    d = degrade_raster(basis, *DEGRADE_LEVELS[level], seed=level)
    return basis, truncate_rows(d) if truncated else d


# (rmse, max_abs, eliminated) of recovery_errors, taken before stencil
# selection was batched; the repr pins every bit.
RECOVERY_PINS = {
    (3, False, "eno"): (0.0010892864868523966, 0.014235512064155964, 2531),
    (3, False, "of"): (0.0064281315210545295, 0.08709147393762084, 2531),
    (5, False, "eno"): (0.005585715295440781, 0.07421247293543576, 2667),
    (5, False, "of"): (0.01642965539465183, 0.2386781465146005, 2667),
    (5, True, "eno"): (0.13781421506294023, 1.3048702973059372, 2943),
    (5, True, "of"): (0.022744102895354088, 0.34481380547959767, 2943),
}


@pytest.mark.parametrize("level, truncated, method", list(RECOVERY_PINS))
def test_recovery_bytes_are_pinned(level, truncated, method):
    basis, degraded = degraded_runge(level, truncated)
    out = recovery_errors(basis, degraded, method)
    assert repr((out["rmse"], out["max_abs"], out["eliminated"])) == repr(
        RECOVERY_PINS[level, truncated, method]
    )


def test_truncated_rows_are_short_and_edge_limited():
    _, degraded = degraded_runge(5, truncated=True)
    lengths = sorted(len(row) for row in build_row_like_grid(degraded).rows)
    assert {2, 3, 4, 5} <= set(lengths)


@pytest.mark.parametrize("method", ["eno", "of"])
def test_selection_raises_no_float_warnings(method, sr1):
    # Padded window slots must never divide by zero or overflow.
    rasters = [sr1, degraded_runge(3)[1], degraded_runge(5, truncated=True)[1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for raster in rasters:
            ext = Extension2D(build_row_like_grid(raster), method)
            xs = raster.x_centers()
            ext.eval_line(xs, np.linspace(raster.yll - 1, raster.bounds[3] + 1, 40))


def test_write_report(tmp_path):
    path = tmp_path / "report.txt"
    write_report(path, {"eps_hr": 0.5, "method": "eno"})
    text = path.read_text()
    assert "eps_hr = 0.5" in text
    assert "method = eno" in text
    data = json.loads((tmp_path / "report.txt.json").read_text())
    assert data == {"eps_hr": 0.5, "method": "eno"}
