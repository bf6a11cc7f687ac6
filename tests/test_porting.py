import hashlib

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexport.cli import main
from hexport import grid_io
from hexport.grid_io import RectRaster, write_hex_raster
from hexport.hexgrid import locate_many
from hexport.metrics import runge_raster
from hexport.porting import PortingConfig, port

from conftest import hex_centers

# sha256 of `hexport port --cells-across 200` applied to SR1, per method.
SR1_PORT_SHA256 = {
    "eno": "0e3c4b1eaea1e8e71ba26918c9181621a484dfd50dbccf82f98ad30050dbf0e5",
    "of": "c9442c1a4b675cf2d1e8aa396b271655a588bf937d58b8709f223bc76c0aabfd",
    "crs": "04899aed276d818f4a87f6d7b9624c37b1be9956b7a17b62d8cb82d56ba9995b",
    "id": "3f6ef91dfe93d90c3c913f59f48e1c93107b8d081e2fe1e33061337023a38e15",
}


def raster_from_fn(fn, bounds, ncols, nrows):
    xmin, ymin, xmax, ymax = bounds
    cs = (xmax - xmin) / ncols
    xs = xmin + (np.arange(ncols) + 0.5) * cs
    ys = ymin + (nrows - np.arange(nrows) - 0.5) * cs
    X, Y = np.meshgrid(xs, ys)
    return RectRaster(values=fn(X, Y), xll=xmin, yll=ymin, cellsize=cs)


class TestPort:
    def test_constant_raster(self):
        r = raster_from_fn(lambda x, y: 0 * x + 5.0, (0, 0, 10, 10), 8, 8)
        for method in ("eno", "of", "crs"):
            h = port(r, PortingConfig(method=method, cells_across=12))
            assert np.allclose(h.values, 5.0, atol=1e-12)

    def test_polynomial_through_pipeline(self):
        r = raster_from_fn(lambda x, y: x * x * y, (0, 0, 12, 12), 12, 12)
        h = port(r, PortingConfig(method="eno", cells_across=20))
        X, Y = hex_centers(h.to_grid())
        assert np.allclose(h.values, X * X * Y, rtol=1e-9, atol=1e-9)

    def test_deterministic_output(self):
        r = runge_raster((-5, -5, 5, 5), 15, 15, 2.0)
        cfg = PortingConfig(method="eno", cells_across=30)
        a = write_hex_raster(port(r, cfg))
        b = write_hex_raster(port(r, cfg))
        assert a == b

    @pytest.mark.parametrize("method", list(SR1_PORT_SHA256))
    def test_sr1_port_bytes_are_pinned(self, method, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(grid_io, "_FORKED_VALUES", 0)
        sr1 = tmp_path / "sr1.asc"
        out = tmp_path / "sr1.hex"
        assert main(["synth", "--runge", "1", "--cols", "41", "--rows", "41",
                     "--bounds=-20,-20,20,20", "--out", str(sr1)]) == 0
        assert main(["port", "--in", str(sr1), "--out", str(out),
                     "--method", method, "--cells-across", "200"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SR1_PORT_SHA256[method]
        # On two cores a helper wrote the second half of both rasters, and
        # parsed the second half of the one the port read.
        assert len(forks) == 3 * grid_io._two_cores()

    def test_id_port_matches_cell_lookup(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-3, 3, (9, 9))
        r = RectRaster(values=vals, xll=0.0, yll=0.0, cellsize=1.0)
        h = port(r, PortingConfig(method="id", cells_across=21))
        grid = h.to_grid()
        X, Y = hex_centers(grid)
        cols, rows, inside = locate_many(grid, X.ravel(), Y.ravel())
        for flat, (x, y) in enumerate(zip(X.ravel(), Y.ravel())):
            got = h.values.ravel()[flat]
            in_raster = 0.0 <= x <= 9.0 and 0.0 <= y <= 9.0
            if not in_raster:
                assert got == r.nodata
            else:
                col = min(int(x), 8)
                row = 8 - min(int(y), 8)
                assert got == vals[row, col]

    def test_radius_sizing(self):
        r = runge_raster((-5, -5, 5, 5), 10, 10, 1.0)
        h = port(r, PortingConfig(method="eno", radius=0.5))
        assert h.r == 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PortingConfig(method="eno")
        with pytest.raises(ValueError):
            PortingConfig(method="eno", cells_across=10, radius=1.0)
        with pytest.raises(ValueError):
            PortingConfig(method="splines", cells_across=10)

    @pytest.mark.parametrize("method", ["eno", "of", "crs", "id"])
    def test_overflow_is_one_data_error(self, method):
        # Centres near 1e300 overflow the cubic extensions: the sampling runs
        # without numpy warnings and the non-finite cells are counted.
        r = runge_raster((-3, -3, 3, 1.5), 12, 9, 1.0)
        config = PortingConfig(method=method, radius=1e300)
        if method == "id":
            assert port(r, config).values.tolist() == [[r.nodata]]
            return
        with pytest.raises(ValueError, match=f"^port: 1 of 1 hex cells are not finite: "
                                             f"the {method} extension overflows there$"):
            port(r, config)

    def test_port_is_total_despite_holes(self):
        vals = np.ones((8, 8))
        vals[3, :] = -9999.0  # a fully missing data row
        vals[5, 2] = -9999.0
        r = RectRaster(values=vals, xll=0, yll=0, cellsize=1.0)
        h = port(r, PortingConfig(method="eno", cells_across=10))
        assert np.all(h.values != h.nodata)
        assert np.allclose(h.values, 1.0, atol=1e-9)


def rough_raster(seed, n=14):
    """A seeded DEM-like raster: a smooth swell, noise and a few outliers."""
    rng = np.random.default_rng(seed)
    u = np.arange(n) / n
    z = 100.0 + 30.0 * np.sin(3.0 * u + rng.uniform(0.0, 3.0))[None, :] * np.cos(2.0 * u)[:, None]
    z = z + rng.normal(0.0, 2.0, (n, n))
    z[rng.random((n, n)) < 0.05] += rng.uniform(-40.0, 40.0)
    return RectRaster(values=z, xll=0.0, yll=0.0, cellsize=10.0)


class TestPortInvariance:
    """What a port does under a change of units, of datum and of georeference."""

    @staticmethod
    def ported(raster, method):
        return port(raster, PortingConfig(method=method, cells_across=21)).values

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_scaled_values_scale_the_port_exactly(self, seed):
        r = rough_raster(seed)
        for method in ("eno", "of", "crs", "id"):
            base = self.ported(r, method)
            scaled = self.ported(replace(r, values=4.0 * r.values), method)
            want = np.where(base == r.nodata, base, 4.0 * base)
            assert want.tobytes() == scaled.tobytes(), method

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_raised_values_raise_the_port(self, seed):
        r = rough_raster(seed)
        for method in ("eno", "of", "crs", "id"):
            base = self.ported(r, method)
            raised = self.ported(replace(r, values=r.values + 1000.0), method)
            data = base != r.nodata
            assert np.array_equal(raised != r.nodata, data), method
            # measured: at most 3e-14 of the range
            assert np.abs(raised - 1000.0 - base)[data].max() <= 4e-13 * np.ptp(r.values), method

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dx=st.floats(0.0, 5e5), dy=st.floats(0.0, 5e6))
    def test_georeference_moves_the_port_by_rounding_only(self, seed, dx, dy):
        # OF scores its stencils on abscissas local to each interval; in
        # absolute ones, shifts like these moved OF ports by up to 1.6 of
        # the range.  Measured over 600 seeded shifts: at most 1.9e-10.
        r = rough_raster(seed)
        moved = replace(r, xll=dx, yll=dy)
        for method in ("eno", "of", "crs"):
            change = np.abs(self.ported(moved, method) - self.ported(r, method)).max()
            assert change <= 1e-9 * np.ptp(r.values), method
