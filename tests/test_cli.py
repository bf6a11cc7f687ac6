import hashlib
import json
import warnings

import numpy as np
import pytest

from hexport import hydroflow
from hexport.cli import main
from hexport.grid_io import (
    HexRaster,
    parse_esri_ascii,
    read_hex_raster,
    write_hex_raster,
)


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def small_dem(tmp_path):
    path = tmp_path / "dem.asc"
    assert run_cli(
        "synth", "--runge", 1.0, "--cols", 15, "--rows", 15,
        "--bounds=-5,-5,5,5", "--out", path,
    ) == 0
    return path


class TestSynth:
    def test_writes_parseable_raster(self, small_dem):
        r = parse_esri_ascii(small_dem.read_text())
        assert (r.ncols, r.nrows) == (15, 15)
        assert r.values[7, 7] == 1.0  # odd counts put a cell center at 0

    def test_reproducible_bytes(self, tmp_path):
        a = tmp_path / "a.asc"
        b = tmp_path / "b.asc"
        for path in (a, b):
            run_cli("synth", "--runge", 2.0, "--cols", 6, "--rows", 5,
                    "--bounds=0,0,6,5", "--out", path)
        assert a.read_bytes() == b.read_bytes()


class TestPort:
    def test_port_and_read_back(self, small_dem, tmp_path):
        out = tmp_path / "dem.hex"
        assert run_cli("port", "--in", small_dem, "--out", out,
                       "--method", "eno", "--cells-across", 20) == 0
        h = read_hex_raster(out.read_text())
        assert h.ncols == 20

    def test_threads_flag_is_gone(self, small_dem, tmp_path):
        assert run_cli("port", "--in", small_dem, "--out", tmp_path / "o.hex",
                       "--cells-across", 10, "--threads", 1) == 2

    def test_requires_exactly_one_sizing(self, small_dem, tmp_path):
        code = run_cli("port", "--in", small_dem, "--out", tmp_path / "x.hex",
                       "--cells-across", 10, "--radius", 1.0)
        assert code == 2


class TestDegrade:
    def test_m1_n1_output_identical(self, small_dem, tmp_path):
        out = tmp_path / "sparse.asc"
        assert run_cli("degrade", "--in", small_dem, "--out", out,
                       "--m", 1, "--n", 1, "--seed", 5) == 0
        assert out.read_text() == small_dem.read_text()

    def test_seeded_reproducibility(self, small_dem, tmp_path, capsys):
        a = tmp_path / "a.asc"
        b = tmp_path / "b.asc"
        for path in (a, b):
            run_cli("degrade", "--in", small_dem, "--out", path,
                    "--m", 3, "--n", 3, "--seed", 7)
        assert a.read_bytes() == b.read_bytes()
        assert "seed = 7" in capsys.readouterr().out


class TestErrors:
    def test_figure_scale_report(self, tmp_path):
        # Knots spanning [-14,14] inclusive, ten intervals per axis: the
        # low-resolution reconstruction study scale.
        dem = tmp_path / "g.asc"
        run_cli("synth", "--runge", 10.0, "--cols", 11, "--rows", 11,
                "--bounds=-15.4,-15.4,15.4,15.4", "--out", dem)
        report = tmp_path / "report.txt"
        assert run_cli("errors", "--raster", dem, "--method", "eno",
                       "--runge", 10.0, "--report", report) == 0
        data = json.loads((tmp_path / "report.txt.json").read_text())
        assert data["eps_ea"] == pytest.approx(0.447, abs=0.03)

    def test_with_hex(self, small_dem, tmp_path):
        hexf = tmp_path / "dem.hex"
        run_cli("port", "--in", small_dem, "--out", hexf,
                "--method", "eno", "--cells-across", 25)
        report = tmp_path / "r.txt"
        assert run_cli("errors", "--raster", small_dem, "--hex", hexf,
                       "--runge", 1.0, "--quad", 4, "--report", report) == 0
        data = json.loads((tmp_path / "r.txt.json").read_text())
        for key in ("eps_er", "eps_ea", "eps_hr", "eps_ha", "eps_ra"):
            assert key in data


# `hexport flow` on a holed 30x35 hex terrain, 40 steps: sha256 of the
# depth and mask outputs and the printed summary, per boundary case.
FLOW_PINS = {
    "open": (
        [],
        "340a7628eb2fe21ca18b98098d2499eebb0783090a504f3f695dc3082cd91422",
        "f13be98722ae7f8244a3a19c10949ce014d22c046af974087987def773650ff7",
        (
            "dt = 0.019112386913126916\n"
            "steps = 40\n"
            "volume_initial = 9.564769459574801\n"
            "volume_final = 7.498579515899732\n"
            "outflow_volume = 2.066189943675069\n"
            "capping_events = 0\n"
            "masked_cells = 269\n"
        ),
    ),
    "closed": (
        ["--dt", 0.1],
        "1af26f807d41857bead848712ae37ceae9149eceb347ef1ebdc6348998effdc3",
        "f7d38442e47c9314795e49e7eed26bd865fb9023364a3448204e54f7729e7ece",
        (
            "dt = 0.1\n"
            "steps = 40\n"
            "volume_initial = 9.564769459574801\n"
            "volume_final = 9.564769459574809\n"
            "outflow_volume = 0.0\n"
            "capping_events = 15314\n"
            "masked_cells = 402\n"
        ),
    ),
}


@pytest.fixture()
def holed_hex(tmp_path):
    """A 30x35 hex port of a Runge bump with 5% of its cells set to NODATA."""
    dem = tmp_path / "bump.asc"
    hexf = tmp_path / "bump.hex"
    assert run_cli("synth", "--runge", 1.0, "--cols", 21, "--rows", 21,
                   "--bounds=-5,-5,5,5", "--out", dem) == 0
    assert run_cli("port", "--in", dem, "--out", hexf,
                   "--method", "eno", "--cells-across", 30) == 0
    ported = read_hex_raster(hexf.read_text())
    values = ported.values.copy()
    values[np.random.default_rng(11).random(values.shape) < 0.05] = ported.nodata
    hexf.write_text(write_hex_raster(HexRaster(
        values=values, x0=ported.x0, y0=ported.y0, r=ported.r, nodata=ported.nodata,
    )))
    return hexf


class TestFlow:
    def test_zero_steps_keeps_initial_depth(self, small_dem, tmp_path):
        hexf = tmp_path / "dem.hex"
        run_cli("port", "--in", small_dem, "--out", hexf,
                "--method", "eno", "--cells-across", 15)
        depth = tmp_path / "d.hex"
        mask = tmp_path / "m.hex"
        assert run_cli("flow", "--hex", hexf, "--h0", 0.25, "--steps", 0,
                       "--out-depth", depth, "--out-mask", mask) == 0
        d = read_hex_raster(depth.read_text())
        assert np.all(d.values == 0.25)
        m = read_hex_raster(mask.read_text())
        assert np.all(m.values == 0.0)

    def test_summary_output(self, small_dem, tmp_path, capsys):
        hexf = tmp_path / "dem.hex"
        run_cli("port", "--in", small_dem, "--out", hexf,
                "--method", "eno", "--cells-across", 12)
        assert run_cli("flow", "--hex", hexf, "--steps", 3) == 0
        out = capsys.readouterr().out
        for key in ("volume_initial", "volume_final", "capping_events"):
            assert key in out

    def test_topology_built_once(self, small_dem, tmp_path, monkeypatch):
        hexf = tmp_path / "dem.hex"
        run_cli("port", "--in", small_dem, "--out", hexf,
                "--method", "eno", "--cells-across", 12)
        built = []
        init = hydroflow._Topology.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(hydroflow._Topology, "__init__", counting_init)
        assert run_cli("flow", "--hex", hexf, "--steps", 3) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("boundary", list(FLOW_PINS))
    def test_flow_bytes_are_pinned(self, holed_hex, boundary, tmp_path, capsys):
        extra, depth_sha, mask_sha, summary = FLOW_PINS[boundary]
        depth = tmp_path / "depth.hex"
        mask = tmp_path / "mask.hex"
        capsys.readouterr()
        assert run_cli("flow", "--hex", holed_hex, "--steps", 40,
                       "--boundary", boundary, *extra,
                       "--out-depth", depth, "--out-mask", mask) == 0
        out = capsys.readouterr().out
        assert out == summary
        assert hashlib.sha256(depth.read_bytes()).hexdigest() == depth_sha
        assert hashlib.sha256(mask.read_bytes()).hexdigest() == mask_sha


class TestRender:
    def test_rect_svg(self, small_dem, tmp_path):
        out = tmp_path / "img.svg"
        assert run_cli("render", "--in", small_dem, "--out", out) == 0
        assert out.read_bytes().startswith(b"<?xml")

    def test_hex_ppm(self, small_dem, tmp_path):
        hexf = tmp_path / "dem.hex"
        run_cli("port", "--in", small_dem, "--out", hexf,
                "--method", "id", "--cells-across", 10)
        out = tmp_path / "img.ppm"
        assert run_cli("render", "--in", hexf, "--out", out) == 0
        assert out.read_bytes().startswith(b"P6\n")

    @pytest.mark.parametrize("suffix", ["svg", "ppm"])
    def test_reader_follows_header_keys(self, small_dem, tmp_path, suffix):
        hexf = tmp_path / "dem.hex"
        run_cli("port", "--in", small_dem, "--out", hexf,
                "--method", "eno", "--cells-across", 10)
        ncols, nrows, rest = hexf.read_text().split("\n", 2)
        reordered = tmp_path / "nrows_first.hex"
        reordered.write_text("\n".join([nrows, ncols, rest]))
        images = [tmp_path / f"{src.stem}.{suffix}" for src in (hexf, reordered)]
        for src, image in zip((hexf, reordered), images):
            assert run_cli("render", "--in", src, "--out", image) == 0
        assert images[0].read_bytes() == images[1].read_bytes()

    @pytest.mark.parametrize("flag", ["--min", "--max"])
    def test_half_range_is_flag_error(self, small_dem, tmp_path, flag, capsys):
        out = tmp_path / "img.svg"
        assert run_cli("render", "--in", small_dem, "--out", out, flag, 0.5) == 2
        assert "give both --min and --max or neither" in capsys.readouterr().err
        assert not out.exists()


# sha256 of the outputs of synth, degrade, errors and render.  The inputs are
# SR1 (41x41 Runge raster, a=1), its 40-across eno port and a non-square
# Runge raster (23 columns, 37 rows); commands run in their directory, so the
# error report names them by relative path.
SR1_SYNTH = ["synth", "--runge", "1", "--cols", "41", "--rows", "41",
             "--bounds=-20,-20,20,20", "--out"]
TALL_SYNTH = ["synth", "--runge", "1", "--cols", "23", "--rows", "37",
              "--bounds=-5,-5,5,5", "--out"]
# `degrade` of the non-square raster: level -> (m, n, seed, sha256); level 0
# is m = n = 1, which returns the input bytes.
DEGRADE_PINS = {
    0: (1, 1, 0, "374f95cdbaa56bc0025068660107521dc4753dc03b821eada9c92efbd2699f37"),
    1: (3, 3, 1, "4cb03c69b562526df41e73e9f1ad56126acd19a376ce09ad443e356bcf62f0ee"),
    2: (4, 3, 2, "5dffb077c42e174b1d9b25007b07007729a1cb17e6f7d770d8696c201f16bf62"),
    3: (5, 3, 3, "7354d84c4f072db9f327f7ec8b4c7363159b4cde6bb9970fb299e5b77fefc21f"),
    4: (5, 4, 4, "d2798aaf6f6f4453b266e8f2cee25a71ca29b6704b3a01f1ac4d34d5d21e96b2"),
    5: (5, 5, 5, "e2cdce593cf0abf39260f8f0c4666482aea18d1151819e944136c0da78e771b1"),
}
OUTPUT_PINS = {
    "synth": (SR1_SYNTH + ["out.asc"], {
        "out.asc": "a4bb951556f0d3c6e687d7663e3f8bfaa11dcbe0a87d92c4f5fa48697e49948d",
    }),
    "degrade": (["degrade", "--in", "sr1.asc", "--out", "out.asc",
                 "--m", "3", "--n", "2", "--seed", "7"], {
        "out.asc": "1bb19a48db6165e1a370f9062be94d19773936d67a33ff468cdbbca4be59d8de",
    }),
    "errors": (["errors", "--raster", "sr1.asc", "--hex", "sr1.hex", "--runge", "1",
                "--quad", "4", "--report", "rep.txt"], {
        "rep.txt": "8c45612734f2862ac32b61994608d8cf631e394f6988250e41455f9b94cb7233",
        "rep.txt.json": "c230e753a8361f82766aa147fe13794d5f36dee21e84fd7154b6570b9841e9ca",
    }),
    "render asc svg": (["render", "--in", "sr1.asc", "--out", "out.svg"], {
        "out.svg": "f6f9bafab1926b7f1c3099f98ae5ff073eeff1d085fdcbedd6b9c3c435e207e2",
    }),
    "render asc ppm": (["render", "--in", "sr1.asc", "--out", "out.ppm"], {
        "out.ppm": "8b1852e0cc9a0a40f41aa5acb805d93572158cdaaa9f92c56f658d820e9f7852",
    }),
    "render hex svg": (["render", "--in", "sr1.hex", "--out", "out.svg"], {
        "out.svg": "8ac66eb50baed7c9a544e6140cc4b7a6081d50e1ead07af8b9ddd3f8a5ce59d7",
    }),
    "render hex ppm": (["render", "--in", "sr1.hex", "--out", "out.ppm"], {
        "out.ppm": "1b5921fb68d28cefb130250c075a8adb5976cb9abc4bb0b4fe3c3a34b89ba1fe",
    }),
    "synth 23x37": (TALL_SYNTH + ["out.asc"], {
        "out.asc": DEGRADE_PINS[0][3],
    }),
    **{
        f"degrade 23x37 level {level}": (
            ["degrade", "--in", "tall.asc", "--out", "out.asc",
             "--m", m, "--n", n, "--seed", seed],
            {"out.asc": sha},
        )
        for level, (m, n, seed, sha) in DEGRADE_PINS.items()
    },
}


@pytest.mark.parametrize("name", list(OUTPUT_PINS))
def test_output_bytes_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*SR1_SYNTH, "sr1.asc") == 0
    assert run_cli("port", "--in", "sr1.asc", "--out", "sr1.hex",
                   "--method", "eno", "--cells-across", 40) == 0
    assert run_cli(*TALL_SYNTH, "tall.asc") == 0
    argv, outputs = OUTPUT_PINS[name]
    assert run_cli(*argv) == 0
    for path, sha in outputs.items():
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == sha

# The flag contract: (argv, exit code, stderr fragment).  In argv, {asc} is a
# 15x15 Runge raster, {hex} its hex port and {out} a path nothing has written.
SYNTH = ["synth", "--runge", "1", "--bounds=-5,-5,5,5", "--out", "{out}"]
PORT = ["port", "--in", "{asc}", "--out", "{out}"]
DEGRADE = ["degrade", "--in", "{asc}", "--out", "{out}"]
FLOW = ["flow", "--hex", "{hex}", "--out-depth", "{out}"]
FLAG_CONTRACT = [
    (SYNTH + ["--cols", "0", "--rows", "5"], 2, "--cols: must be a positive integer, got '0'"),
    (SYNTH + ["--cols", "5", "--rows", "-2"], 2, "--rows: must be a positive integer"),
    (SYNTH + ["--cols", "5", "--rows", "5"], 0, ""),
    (PORT + ["--cells-across", "0"], 2, "--cells-across: must be a positive integer"),
    (PORT + ["--radius", "-1"], 2, "--radius: must be a positive finite number"),
    (PORT + ["--radius", "inf"], 2, "--radius: must be a positive finite number"),
    (PORT + ["--cells-across", "4"], 0, ""),
    (DEGRADE + ["--m", "0"], 2, "--m: must be a positive integer"),
    (DEGRADE + ["--n", "-1"], 2, "--n: must be a positive integer"),
    (DEGRADE + ["--seed", "-1"], 2, "--seed: must be a nonnegative integer"),
    (DEGRADE + ["--m", "1", "--n", "1", "--seed", "0"], 0, ""),
    (["errors", "--raster", "{asc}", "--quad", "0", "--report", "{out}"], 2,
     "--quad: must be a positive integer"),
    (FLOW + ["--steps", "-1"], 2, "--steps: must be a nonnegative integer"),
    (FLOW + ["--steps", "1.5"], 2, "--steps: invalid int value: '1.5'"),
    (FLOW + ["--steps", "1", "--dt", "0"], 2, "--dt: must be a positive finite number"),
    (FLOW + ["--steps", "1", "--dt", "nan"], 2, "--dt: must be a positive finite number"),
    (FLOW + ["--steps", "1", "--manning", "0"], 2, "--manning: must be a positive finite number"),
    (FLOW + ["--steps", "1", "--h0", "-1"], 2, "--h0: must be a nonnegative finite number"),
    (FLOW + ["--steps", "1", "--h0", "inf"], 2, "--h0: must be a nonnegative finite number"),
    (FLOW + ["--steps", "0", "--h0", "0"], 0, ""),
    (["render", "--in", "{asc}", "--out", "{out}.ppm", "--px-per-cell", "0"], 2,
     "--px-per-cell: must be a positive integer"),
    (["render", "--in", "{asc}", "--out", "{out}.svg", "--px-per-cell", "0"], 2,
     "--px-per-cell: must be a positive integer"),
    (["render", "--in", "{hex}", "--out", "{out}.ppm", "--px-per-cell", "-3"], 2,
     "--px-per-cell: must be a positive integer"),
    (["render", "--in", "{asc}", "--out", "{out}.svg", "--min", "1", "--max", "0"], 2,
     "--min must be less than --max"),
    (["render", "--in", "{asc}", "--out", "{out}.svg", "--min", "1", "--max", "1"], 2,
     "--min must be less than --max"),
    (["render", "--in", "{asc}", "--out", "{out}.svg", "--min", "0", "--max", "1"], 0, ""),
    (["render", "--in", "{asc}", "--out", "{out}.ppm", "--min=-inf", "--max=inf"], 2,
     "--min: must be a finite number, got '-inf'"),
    (["render", "--in", "{asc}", "--out", "{out}.ppm", "--min", "0", "--max", "inf"], 2,
     "--max: must be a finite number, got 'inf'"),
    (["render", "--in", "{hex}", "--out", "{out}.svg", "--min=nan", "--max", "1"], 2,
     "--min: must be a finite number, got 'nan'"),
    (["render", "--in", "{out}", "--out", "{out}.svg"], 1, "error:"),
    (["render", "--in", "{asc}", "--out", "{out}.png"], 2,
     "--out: must end in .svg or .ppm"),
    (["render", "--in", "{asc}", "--out", "{out}"], 2, "--out: must end in .svg or .ppm"),
    (["render", "--in", "{asc}", "--out", "{out}.PPM"], 0, ""),
    (["render", "--in", "{hex}", "--out", "{out}.Svg"], 0, ""),
    (SYNTH + ["--cols", "5", "--rows", "5", "--runge", "nan"], 2,
     "--runge: must be a finite number, got 'nan'"),
    (SYNTH + ["--cols", "5", "--rows", "5", "--bounds=0,0,inf,6"], 2,
     "--bounds: must be four finite numbers"),
    (SYNTH + ["--cols", "5", "--rows", "5", "--bounds=0,0,1"], 2,
     "--bounds: must be four finite numbers"),
    (SYNTH + ["--cols", "5", "--rows", "5", "--bounds=0,0,1,x"], 2,
     "--bounds: must be four finite numbers"),
    (SYNTH + ["--cols", "5", "--rows", "5", "--bounds=5,5,-5,-5"], 2,
     "with xmin < xmax and ymin < ymax, got '5,5,-5,-5'"),
    (SYNTH + ["--cols", "5", "--rows", "5", "--bounds=0,2,1,2"], 2,
     "with xmin < xmax and ymin < ymax, got '0,2,1,2'"),
    (SYNTH + ["--cols", "5", "--rows", "5", "--bounds=0,1,1,2"], 0, ""),
    (["errors", "--raster", "{asc}", "--runge", "inf", "--report", "{out}"], 2,
     "--runge: must be a finite number, got 'inf'"),
    (["errors", "--raster", "{asc}", "--runge", "1", "--quad", "1", "--report", "{out}"], 0, ""),
    (FLOW + ["--steps", "1", "--mask-margin", "nan"], 2,
     "--mask-margin: must be a nonnegative finite number, got 'nan'"),
    (FLOW + ["--steps", "1", "--mask-margin", "-0.5"], 2,
     "--mask-margin: must be a nonnegative finite number, got '-0.5'"),
    (FLOW + ["--steps", "1", "--mask-margin", "0.5"], 0, ""),
    (PORT + ["--radius", "1e-8"], 1, "error: Unable to allocate"),  # a hex grid too large
]

# A non-finite geometry value in an input header: (command, input kind, key).
NON_FINITE_HEADER = [
    (["port", "--in", "{bad}", "--out", "{out}", "--cells-across", "8"], "asc", "cellsize inf"),
    (["port", "--in", "{bad}", "--out", "{out}", "--cells-across", "8"], "asc", "xllcorner nan"),
    (FLOW + ["--steps", "1"], "hex", "radius inf"),
    (FLOW + ["--steps", "1"], "hex", "xcenter0 nan"),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, code, fragment", FLAG_CONTRACT,
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_flag_contract(self, small_dem, tmp_path, capsys, argv, code, fragment):
        hexf = tmp_path / "dem.hex"
        assert run_cli("port", "--in", small_dem, "--out", hexf, "--cells-across", 8) == 0
        out = tmp_path / "out"
        argv = [a.format(asc=small_dem, hex=hexf, out=out) for a in argv]
        capsys.readouterr()
        assert run_cli(*argv) == code
        assert fragment in capsys.readouterr().err
        if code:
            assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("argv, kind, bad", NON_FINITE_HEADER,
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_non_finite_header_is_data_error(self, small_dem, tmp_path, capsys, argv, kind, bad):
        hexf = tmp_path / "dem.hex"
        assert run_cli("port", "--in", small_dem, "--out", hexf, "--cells-across", 8) == 0
        good = small_dem if kind == "asc" else hexf
        key = bad.split()[0]
        lines = [bad if line.lower().startswith(key) else line
                 for line in good.read_text().splitlines()]
        (tmp_path / "bad").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = [a.format(bad=tmp_path / "bad", hex=tmp_path / "bad", out=out) for a in argv]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv) == 1
        assert caught == []
        assert f"error: {'esri ascii' if kind == 'asc' else 'hex raster'}: {key} must be finite" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, what, geometry", [
        (["degrade", "--in", "{bad}", "--out", "{out}"], "esri ascii",
         "xllcorner 0\nyllcorner 0\ncellsize 1\n"),
        (["flow", "--hex", "{bad}", "--out-depth", "{out}", "--steps", "1"], "hex raster",
         "xcenter0 0\nycenter0 0\nradius 1\n"),
    ], ids=["esri", "hex"])
    def test_oversize_header_is_count_mismatch(self, tmp_path, capsys, argv, what, geometry):
        bad = tmp_path / "bad"
        bad.write_text(f"ncols 10000000\nnrows 10000000\n{geometry}NODATA_value -9999\n1 2 3 4\n")
        out = tmp_path / "out"
        assert run_cli(*[a.format(bad=bad, out=out) for a in argv]) == 1
        assert f"error: {what}: expected 100000000000000 values, found 4" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_start_volume_is_data_error(self, small_dem, tmp_path, capsys):
        """Depths that are finite but sum past the float range are refused
        before the first step, with one error line and no numpy warning."""
        hexf = tmp_path / "dem.hex"
        assert run_cli("port", "--in", small_dem, "--out", hexf, "--cells-across", 8) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("flow", "--hex", hexf, "--h0", "1e308", "--steps", 2,
                           "--out-depth", out) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: total water volume is not finite\n"
        assert not out.exists()

    def test_relief_near_the_float_range_is_data_error(self, tmp_path, capsys):
        """Without --dt, terrain whose squared slopes overflow gets no time
        step: one error line, no numpy warning and no output."""
        z = np.random.default_rng(0).uniform(0.0, 1e200, (5, 6))
        hexf = tmp_path / "tall.hex"
        hexf.write_text(write_hex_raster(HexRaster(values=z, x0=0.0, y0=0.0, r=1.0)))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("flow", "--hex", hexf, "--h0", 0.1, "--steps", 2,
                           "--out-depth", out) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: velocity bound")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("method, radius", [
        ("eno", "1e300"), ("of", "1e300"), ("crs", "1e300"), ("eno", "1e150"), ("id", "1e300"),
    ])
    def test_overflowing_port_is_data_error(self, tmp_path, capsys, method, radius):
        """A hex grid so coarse that its centres lie far outside the raster:
        the cubic extensions overflow there, which is one error line and no
        output; ``id`` gives NODATA.  Neither leaks a numpy warning."""
        asc, out = tmp_path / "r.asc", tmp_path / "out"
        assert run_cli("synth", "--cols", 12, "--rows", 9, "--bounds=-3,-3,3,3", "--runge", 1,
                       "--out", asc) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("port", "--in", asc, "--out", out, "--method", method,
                           "--radius", radius)
        assert caught == []
        captured = capsys.readouterr()
        if method == "id":
            assert code == 0
            ported = read_hex_raster(out.read_text())
            assert np.all(ported.values == ported.nodata)
        else:
            assert code == 1
            assert captured.err == (f"error: port: 1 of 1 hex cells are not finite: "
                                    f"the {method} extension overflows there\n")
            assert not out.exists()

    @pytest.mark.parametrize("sizing", [
        *(("--method", m, "--radius", "1e-320") for m in ("eno", "of", "crs", "id")),
        ("--method", "eno", "--cells-across", "1" + "0" * 400),
        ("--method", "id", "--radius", "1.7e308"),
    ])
    def test_grid_without_finite_counts_is_data_error(self, tmp_path, capsys, sizing):
        """A radius so small that the column count overflows, a cell count
        past the float range, or a radius whose cell width overflows: one
        error line and no output."""
        asc, out = tmp_path / "r.asc", tmp_path / "out"
        assert run_cli("synth", "--cols", 12, "--rows", 9, "--bounds=-3,-3,3,3", "--runge", 1,
                       "--out", asc) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("port", "--in", asc, "--out", out, *sizing) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cell width ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_synth_far_from_the_bump_writes_zeros_without_warning(self, tmp_path):
        out = tmp_path / "far.asc"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("synth", "--runge", 1, "--cols", 4, "--rows", 4,
                           "--bounds=-1e300,-1e300,1e300,1e300", "--out", out) == 0
        assert np.all(parse_esri_ascii(out.read_text()).values == 0.0)

    def test_flag_error_is_2(self):
        assert run_cli("port", "--bogus") == 2
        assert run_cli("nosuchcommand") == 2

    def test_data_error_is_1(self, tmp_path):
        assert run_cli("render", "--in", tmp_path / "missing.asc",
                       "--out", tmp_path / "x.svg") == 1

    def test_help_is_0(self, capsys):
        assert run_cli("--help") == 0
        assert "port" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "cmd", ["synth", "port", "degrade", "errors", "flow", "render"]
    )
    def test_subcommand_help(self, cmd, capsys):
        assert run_cli(cmd, "--help") == 0
        assert "--" in capsys.readouterr().out
