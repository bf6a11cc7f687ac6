import hashlib

import numpy as np
import pytest

from hexport.cli import main
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
    def test_sr1_port_bytes_are_pinned(self, method, tmp_path):
        sr1 = tmp_path / "sr1.asc"
        out = tmp_path / "sr1.hex"
        assert main(["synth", "--runge", "1", "--cols", "41", "--rows", "41",
                     "--bounds=-20,-20,20,20", "--out", str(sr1)]) == 0
        assert main(["port", "--in", str(sr1), "--out", str(out),
                     "--method", method, "--cells-across", "200"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SR1_PORT_SHA256[method]

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

    def test_port_is_total_despite_holes(self):
        vals = np.ones((8, 8))
        vals[3, :] = -9999.0  # a fully missing data row
        vals[5, 2] = -9999.0
        r = RectRaster(values=vals, xll=0, yll=0, cellsize=1.0)
        h = port(r, PortingConfig(method="eno", cells_across=10))
        assert np.all(h.values != h.nodata)
        assert np.allclose(h.values, 1.0, atol=1e-9)
