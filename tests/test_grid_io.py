import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexport.errors import (
    CountMismatchError,
    DegenerateRangeWarning,
    MalformedHeaderError,
    NonNumericTokenError,
)
from hexport.grid_io import (
    HexRaster,
    RectRaster,
    parse_esri_ascii,
    read_hex_raster,
    read_raster,
    render,
    write_esri_ascii,
    write_hex_raster,
)

MINIMAL = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\n1 2\n"


class TestParseEsri:
    def test_minimal_file(self):
        r = parse_esri_ascii(MINIMAL)
        assert (r.ncols, r.nrows) == (2, 1)
        assert (r.xll, r.yll, r.cellsize) == (0.0, 0.0, 10.0)
        assert r.nodata == -9999.0
        assert list(r.values.ravel()) == [1.0, 2.0]

    def test_count_mismatch(self):
        with pytest.raises(CountMismatchError):
            parse_esri_ascii(MINIMAL.replace("1 2\n", "1\n"))

    def test_nodata_passthrough(self):
        text = MINIMAL.replace("cellsize 10\n", "cellsize 10\nNODATA_value -9999\n")
        r = parse_esri_ascii(text.replace("1 2", "-9999 5"))
        assert r.nodata == -9999.0
        assert list(r.values.ravel()) == [-9999.0, 5.0]

    def test_missing_key(self):
        with pytest.raises(MalformedHeaderError):
            parse_esri_ascii("ncols 2\nnrows 1\nxllcorner 0\ncellsize 10\n1 2\n")

    def test_duplicate_key(self):
        with pytest.raises(MalformedHeaderError):
            parse_esri_ascii("ncols 2\nncols 2\n" + MINIMAL.split("\n", 1)[1])

    def test_non_numeric_token(self):
        with pytest.raises(NonNumericTokenError):
            parse_esri_ascii(MINIMAL.replace("1 2", "1 abc"))

    def test_xllcenter_converts_to_corner(self):
        text = MINIMAL.replace("xllcorner 0", "xllcenter 5")
        r = parse_esri_ascii(text)
        assert r.xll == 0.0

    def test_crlf_and_whitespace_runs(self):
        text = "ncols  2\r\nnrows\t1\r\nxllcorner 0\r\nyllcorner 0\r\ncellsize 10\r\n 1   2 \r\n"
        r = parse_esri_ascii(text)
        assert list(r.values.ravel()) == [1.0, 2.0]

    def test_bytes_accepted(self):
        assert parse_esri_ascii(MINIMAL.encode()) == parse_esri_ascii(MINIMAL)

    def test_case_insensitive_keys(self):
        text = MINIMAL.replace("ncols", "NCOLS").replace("xllcorner", "XLLCORNER")
        assert parse_esri_ascii(text).ncols == 2


class TestWriteEsri:
    def test_round_trip_minimal(self):
        r = parse_esri_ascii(MINIMAL)
        assert parse_esri_ascii(write_esri_ascii(r)) == r

    def test_tenth_survives(self):
        r = RectRaster(values=[[0.1]], xll=0.0, yll=0.0, cellsize=1.0)
        back = parse_esri_ascii(write_esri_ascii(r))
        assert back.values[0, 0] == 0.1

    def test_writing_always_succeeds_for_valid_input(self):
        r = RectRaster(values=[[1e-300, 1e300]], xll=-1e9, yll=1e9, cellsize=1e-9)
        text = write_esri_ascii(r)
        assert parse_esri_ascii(text) == r


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=60, deadline=None)
@given(
    ncols=st.integers(1, 5),
    nrows=st.integers(1, 5),
    xll=finite.filter(lambda v: abs(v) < 1e12),
    yll=finite.filter(lambda v: abs(v) < 1e12),
    cellsize=st.floats(1e-6, 1e6, allow_nan=False),
    data=st.data(),
)
def test_esri_round_trip_property(ncols, nrows, xll, yll, cellsize, data):
    vals = data.draw(
        st.lists(finite, min_size=ncols * nrows, max_size=ncols * nrows)
    )
    r = RectRaster(
        values=np.array(vals).reshape(nrows, ncols),
        xll=xll,
        yll=yll,
        cellsize=cellsize,
    )
    assert parse_esri_ascii(write_esri_ascii(r)) == r


@settings(max_examples=40, deadline=None)
@given(
    ncols=st.integers(1, 4),
    nrows=st.integers(1, 4),
    r=st.floats(1e-6, 1e6, allow_nan=False),
    data=st.data(),
)
def test_hex_round_trip_property(ncols, nrows, r, data):
    vals = data.draw(st.lists(finite, min_size=ncols * nrows, max_size=ncols * nrows))
    hx = HexRaster(
        values=np.array(vals).reshape(nrows, ncols), x0=0.5, y0=-0.25, r=r
    )
    assert read_hex_raster(write_hex_raster(hx)) == hx


class TestHexFormat:
    def test_single_cell_round_trip(self):
        hx = HexRaster(values=[[7.0]], x0=0.0, y0=0.0, r=1.0)
        assert read_hex_raster(write_hex_raster(hx)) == hx

    def test_count_mismatch(self):
        text = (
            "ncols 2\nnrows 2\nxcenter0 0\nycenter0 0\nradius 1\nNODATA_value -9999\n1 2 3\n"
        )
        with pytest.raises(CountMismatchError):
            read_hex_raster(text)

    def test_nodata_cells_round_trip(self):
        hx = HexRaster(values=[[-9999.0, 3.0]], x0=0.0, y0=0.0, r=1.0)
        back = read_hex_raster(write_hex_raster(hx))
        assert back.values[0, 0] == -9999.0

    def test_missing_header(self):
        with pytest.raises(MalformedHeaderError):
            read_hex_raster("ncols 1\nnrows 1\nradius 1\nNODATA_value -9999\n1\n")


class TestHeaderOrder:
    """Header keys may come in any order; read_raster picks the format by key."""

    HEX = HexRaster(values=[[1.0, 2.0]], x0=0.5, y0=-1.0, r=2.0)

    def test_reversed_hex_header(self):
        lines = write_hex_raster(self.HEX).splitlines()
        text = "\n".join(lines[5::-1] + lines[6:]) + "\n"
        assert text.startswith("NODATA_value")
        assert read_hex_raster(text) == self.HEX
        assert read_raster(text) == self.HEX

    def test_reversed_esri_header(self):
        lines = MINIMAL.splitlines()
        text = "\n".join(lines[4::-1] + lines[5:]) + "\n"
        assert parse_esri_ascii(text) == parse_esri_ascii(MINIMAL)
        assert read_raster(text.encode()) == parse_esri_ascii(MINIMAL)

    def test_both_corner_and_center(self):
        with pytest.raises(MalformedHeaderError, match="both xllcorner and xllcenter"):
            parse_esri_ascii(MINIMAL.replace("xllcorner 0\n", "xllcorner 0\nxllcenter 5\n"))

ESRI_GEOMETRY = ["ncols", "nrows", "xllcorner", "yllcorner", "xllcenter", "yllcenter", "cellsize"]
HEX_GEOMETRY = ["ncols", "nrows", "xcenter0", "ycenter0", "radius"]
NON_FINITE = ["nan", "inf", "-inf"]


class TestNonFiniteGeometry:
    """Non-finite header geometry is a data error, not a later crash."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("key", ESRI_GEOMETRY)
    def test_esri_header(self, key, value):
        text = MINIMAL
        if key.endswith("center"):
            text = text.replace(key.replace("center", "corner") + " 0", key + " 5")
        text = text.replace(next(line for line in text.splitlines() if line.startswith(key)),
                            f"{key} {value}")
        with pytest.raises(MalformedHeaderError, match=f"{key} must be finite"):
            parse_esri_ascii(text)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("key", HEX_GEOMETRY)
    def test_hex_header(self, key, value):
        text = write_hex_raster(HexRaster(values=[[1.0, 2.0]], x0=0.0, y0=0.0, r=1.0))
        text = text.replace(next(line for line in text.splitlines() if line.startswith(key)),
                            f"{key} {value}")
        with pytest.raises(MalformedHeaderError, match=f"{key} must be finite"):
            read_hex_raster(text)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["xll", "yll", "cellsize"])
    def test_rect_raster(self, field, value):
        geometry = {"xll": 0.0, "yll": 0.0, "cellsize": 1.0, field: value}
        with pytest.raises(ValueError, match="must be finite"):
            RectRaster(values=[[1.0]], **geometry)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["x0", "y0", "r"])
    def test_hex_raster(self, field, value):
        geometry = {"x0": 0.0, "y0": 0.0, "r": 1.0, field: value}
        with pytest.raises(ValueError, match="must be finite"):
            HexRaster(values=[[1.0]], **geometry)


# Both raster kinds as (class, position and size field names).
KINDS = [(RectRaster, ("xll", "yll", "cellsize")), (HexRaster, ("x0", "y0", "r"))]
VALUES = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def make_raster(cls, names, values=VALUES, x=1.0, y=-2.0, size=0.5, nodata=-9999.0):
    return cls(values, **dict(zip(names, (x, y, size))), nodata=nodata)


class TestRasterKinds:
    """Construction and equality, checked alike for both raster kinds."""

    @pytest.mark.parametrize("fault", [
        {"values": [1.0, 2.0]},
        {"values": np.empty((0, 3))},
        {"values": [[1.0, np.nan]]},
        {"values": [[1.0, np.inf]]},
        {"x": np.nan},
        {"y": -np.inf},
        {"size": np.inf},
        {"size": np.nan},
        {"size": 0.0},
        {"size": -1.0},
        {"nodata": np.nan},
        {"nodata": np.inf},
    ], ids=repr)
    @pytest.mark.parametrize("cls, names", KINDS, ids=["rect", "hex"])
    def test_constructor_rejects(self, cls, names, fault):
        with pytest.raises(ValueError):
            make_raster(cls, names, **fault)

    @pytest.mark.parametrize("change", [
        {"x": 1.5},
        {"y": -2.5},
        {"size": 0.25},
        {"nodata": -1.0},
        {"values": [[1.0, 2.0, 3.0], [4.0, 5.0, 7.0]]},
        {"values": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]},
        {"values": [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]},
    ], ids=repr)
    @pytest.mark.parametrize("cls, names", KINDS, ids=["rect", "hex"])
    def test_equality_sees_every_field(self, cls, names, change):
        base = make_raster(cls, names)
        assert base == make_raster(cls, names)
        other = make_raster(cls, names, **change)
        assert base != other and other != base

    def test_kinds_never_compare_equal(self):
        rect = make_raster(*KINDS[0])
        hexr = make_raster(*KINDS[1])
        assert rect != hexr and hexr != rect


class TestRender:
    def test_single_hex_svg_has_one_polygon(self):
        hx = HexRaster(values=[[1.0]], x0=0.0, y0=0.0, r=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRangeWarning)
            svg = render(hx, "svg").decode()
        assert svg.count("<polygon") == 1
        pts = svg.split('points="')[1].split('"')[0]
        assert len(pts.split()) == 6

    def test_rect_ppm_dimensions_and_blocks(self):
        r = RectRaster(values=[[0.0, 1.0], [2.0, 3.0]], xll=0, yll=0, cellsize=1.0)
        ppm = render(r, "ppm", px_per_cell=4)
        header, rest = ppm.split(b"\n", 1)
        assert header == b"P6"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"8 8"
        _, pixels = rest.split(b"\n", 1)
        img = np.frombuffer(pixels, dtype=np.uint8).reshape(8, 8, 3)
        colors = {tuple(img[i, j]) for i in range(8) for j in range(8)}
        assert len(colors) == 4
        # each block uniform
        for bi in range(2):
            for bj in range(2):
                block = img[bi * 4 : bi * 4 + 4, bj * 4 : bj * 4 + 4]
                assert len({tuple(p) for p in block.reshape(-1, 3)}) == 1

    def test_constant_raster_warns_not_errors(self):
        r = RectRaster(values=[[5.0, 5.0]], xll=0, yll=0, cellsize=1.0)
        with pytest.warns(DegenerateRangeWarning):
            ppm = render(r, "ppm", px_per_cell=2)
        _, _, _, pixels = ppm.split(b"\n", 3)
        img = np.frombuffer(pixels, dtype=np.uint8).reshape(-1, 3)
        assert len({tuple(p) for p in img}) == 1

    def test_explicit_range_suppresses_warning(self):
        r = RectRaster(values=[[5.0, 5.0]], xll=0, yll=0, cellsize=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render(r, "ppm", value_range=(0.0, 10.0))

    @pytest.mark.parametrize("value_range", [(-np.inf, np.inf), (0.0, np.inf), (np.nan, 1.0)])
    def test_non_finite_range_rejected(self, value_range):
        r = RectRaster(values=[[5.0, 6.0]], xll=0, yll=0, cellsize=1.0)
        with pytest.raises(ValueError, match="value_range must be finite"):
            render(r, "ppm", value_range=value_range)

    @pytest.mark.parametrize("value_range", [(1.0, 1.0), (2.0, 1.0)])
    @pytest.mark.parametrize("fmt", ["ppm", "svg"])
    def test_empty_or_inverted_range_rejected(self, value_range, fmt):
        # An equal pair divided by zero in _colorize; a falling one rendered
        # the palette backwards.  Both are refused before any colour is mapped.
        hx = HexRaster(values=[[5.0, 6.0]], x0=0.0, y0=0.0, r=1.0)
        for raster in (RectRaster(values=[[5.0, 6.0]], xll=0, yll=0, cellsize=1.0), hx):
            with pytest.raises(ValueError, match="value_range must have min < max"):
                render(raster, fmt, value_range=value_range)

    def test_hex_svg_cell_count(self):
        hx = HexRaster(values=np.arange(6.0).reshape(2, 3), x0=0.0, y0=0.0, r=1.0)
        svg = render(hx, "svg").decode()
        assert svg.count("<polygon") == 6

    def test_rect_svg_cell_count(self):
        r = RectRaster(values=np.arange(12.0).reshape(3, 4), xll=0, yll=0, cellsize=2.0)
        svg = render(r, "svg").decode()
        assert svg.count("<rect") == 12

    def test_nodata_gets_gap_color(self):
        r = RectRaster(values=[[-9999.0, 1.0], [2.0, 3.0]], xll=0, yll=0, cellsize=1.0)
        ppm = render(r, "ppm", px_per_cell=1)
        _, _, _, pixels = ppm.split(b"\n", 3)
        img = np.frombuffer(pixels, dtype=np.uint8).reshape(2, 2, 3)
        assert tuple(img[0, 0]) == (200, 200, 200)

    def test_hex_ppm_smoke(self):
        hx = HexRaster(values=np.arange(12.0).reshape(3, 4), x0=0.0, y0=0.0, r=1.0)
        ppm = render(hx, "ppm", px_per_cell=6)
        assert ppm.startswith(b"P6\n")


def old_parse_body(lines, nrows, ncols, what):
    """The body parse the streaming one replaced: join the body, then one split."""
    tokens = " ".join(lines).split()
    if len(tokens) != nrows * ncols:
        raise CountMismatchError(f"{what}: expected {nrows * ncols} values, found {len(tokens)}")
    try:
        flat = np.array([float(t) for t in tokens])
    except ValueError:
        bad = next(t for t in tokens if not _is_number(t))
        raise NonNumericTokenError(f"{what}: bad value token {bad!r}") from None
    return flat.reshape(nrows, ncols)


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def outcome(parse, *args):
    """The values ``parse`` returns, or the class and message of what it raises."""
    try:
        result = parse(*args)
    except (CountMismatchError, NonNumericTokenError) as exc:
        return type(exc), str(exc)
    return getattr(result, "values", result).tobytes()


# (raster kind, position and size field names, reader, writer, error prefix)
CODECS = [
    (RectRaster, ("xll", "yll", "cellsize"), parse_esri_ascii, write_esri_ascii, "esri ascii"),
    (HexRaster, ("x0", "y0", "r"), read_hex_raster, write_hex_raster, "hex raster"),
]
# Whatever separates two body values: whitespace runs, every line ending,
# blank lines, trailing whitespace, form feeds and vertical tabs.
SEPARATORS = [" ", "   ", "\t", " \t ", "\n", "\r\n", "\r", "\n\n", " \n", "\t\r\n",
              "\r\n \r\n", "\f", "\v", " \x0c\n"]
BAD_TOKENS = ["abc", "1.2.3", "0x1p3", "1,5", "--2", "e5", "1e"]
FAULTS = [(), ("missing",), ("extra",), ("bad",), ("missing", "bad"), ("extra", "bad")]


class TestStreamingCodec:
    """The line-by-line parse and the row-by-row write change no result."""

    @settings(max_examples=150, deadline=None)
    @given(
        codec=st.sampled_from(CODECS),
        nrows=st.integers(1, 6),
        ncols=st.integers(1, 6),
        faults=st.sampled_from(FAULTS),
        data=st.data(),
    )
    def test_matches_whole_body_parse(self, codec, nrows, ncols, faults, data):
        cls, names, read, write, what = codec
        values = data.draw(st.lists(finite, min_size=nrows * ncols, max_size=nrows * ncols))
        raster = cls(np.array(values).reshape(nrows, ncols), **dict(zip(names, (1.0, -2.0, 0.5))))
        text = write(raster)
        buf = io.StringIO()
        assert write(raster, out=buf) is None
        assert buf.getvalue() == text

        lines = text.splitlines()
        tokens = " ".join(lines[6:]).split()
        index = st.integers(0, len(tokens))
        if "extra" in faults:
            tokens.insert(data.draw(index), data.draw(st.sampled_from(["1.5", "-0", "7"])))
        if "missing" in faults:
            del tokens[data.draw(index) % len(tokens)]
        if "bad" in faults and tokens:
            tokens[data.draw(index) % len(tokens)] = data.draw(st.sampled_from(BAD_TOKENS))
        seps = data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens) + 1,
                                  max_size=len(tokens) + 1))
        body = data.draw(st.sampled_from(["", " ", "\n"])) + "".join(
            token + sep for token, sep in zip(tokens, seps)
        )
        text = "\n".join(lines[:6]) + "\n" + body

        expected = outcome(old_parse_body, text.splitlines()[6:], nrows, ncols, what)
        assert outcome(read, text) == expected
        assert outcome(read_raster, text) == expected
        if not faults:
            assert expected == raster.values.tobytes()


class TestCodecMemory:
    """A read or write holds the text, its lines and the values, plus O(one row)."""

    RASTER = HexRaster(values=np.random.default_rng(0).normal(size=(300, 300)),
                       x0=0.0, y0=0.0, r=1.0)

    @staticmethod
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_parse_holds_no_token_list(self):
        text = write_hex_raster(self.RASTER)
        peak = self.peak(read_hex_raster, text)
        assert peak <= 1.5 * len(text) + 8 * self.RASTER.values.size

    @pytest.mark.parametrize("nrows", [30, 300])
    def test_write_holds_one_row(self, tmp_path, nrows):
        raster = HexRaster(values=self.RASTER.values[:nrows], x0=0.0, y0=0.0, r=1.0)
        row = len(write_hex_raster(raster).splitlines()[-1]) + 1
        with open(tmp_path / "out.hex", "w", encoding="utf-8", newline="\n") as fh:
            peak = self.peak(write_hex_raster, raster, fh)
        assert peak < 12 * row
        assert (tmp_path / "out.hex").read_text() == write_hex_raster(raster)
