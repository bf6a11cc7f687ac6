import importlib.util
import itertools
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexport import interp1d
from hexport.errors import DuplicateKnotError, EmptyKnotsError, InsufficientKnotsError
from hexport.interp1d import (
    ENO,
    OF,
    Extension1D,
    Knots1D,
    KnotTable,
    Stencil1D,
    _eno_score_parts,
    _newton_coeffs,
    _newton_eval,
    _of_energy,
    _pieces,
    divided_difference,
    eno_score,
    eno_select,
    newton_cubic_eval,
    of_objective,
    of_select,
)
from hexport.interp2d import CrsExtension, Extension2D, RowLikeGrid, build_row_like_grid

GAUSS5 = np.polynomial.legendre.leggauss(5)


def lagrange_eval(xs, fs, x):
    """Brute-force Lagrange form, independent of the Newton implementation."""
    total = 0.0
    for i in range(len(xs)):
        term = fs[i]
        for j in range(len(xs)):
            if j != i:
                term *= (x - xs[j]) / (xs[i] - xs[j])
        total += term
    return total


def quad_secant_distance_sq(xs, fs, k, p, q):
    """Gauss quadrature of (cubic - secant)^2 over interval k; exact for deg 6."""
    nodes, weights = GAUSS5
    u, v = xs[k], xs[k + 1]
    t = 0.5 * (v - u) * nodes + 0.5 * (u + v)
    idx = [k, k + 1, p, q]
    P = np.array([lagrange_eval(xs[idx], fs[idx], ti) for ti in t])
    Q = fs[k] + (t - xs[k]) * (fs[k + 1] - fs[k]) / (xs[k + 1] - xs[k])
    return 0.5 * (v - u) * float(np.sum(weights * (P - Q) ** 2))


class TestDividedDifference:
    def test_slope_of_identity(self):
        assert divided_difference([0.0, 1.0], [0.0, 1.0]) == 1.0

    def test_cubic_coefficient_of_quadratic_vanishes(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        assert divided_difference(xs, [x * x for x in xs]) == pytest.approx(0.0, abs=1e-15)

    def test_leading_coefficient_of_cubic(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        assert divided_difference(xs, [x**3 for x in xs]) == pytest.approx(1.0)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(0)
        xs = [0.0, 0.7, 1.9, 3.2]
        fs = list(rng.uniform(-3, 3, 4))
        base = divided_difference(xs, fs)
        for perm in itertools.permutations(range(4)):
            assert divided_difference([xs[i] for i in perm], [fs[i] for i in perm]) == pytest.approx(base, rel=1e-12)

    def test_duplicate_knot_rejected(self):
        with pytest.raises(DuplicateKnotError):
            divided_difference([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])


class TestNewtonCubicEval:
    def test_cubic_reproduction(self):
        kn = Knots1D(np.arange(4.0), np.arange(4.0) ** 3)
        st = eno_select(kn, 1)
        assert newton_cubic_eval(st, kn, 1.5) == pytest.approx(3.375, rel=1e-14)

    def test_exact_at_stencil_knots(self):
        rng = np.random.default_rng(1)
        kn = Knots1D(np.cumsum(rng.uniform(0.2, 1.5, 6)), rng.uniform(-2, 2, 6))
        st = eno_select(kn, 2)
        for i in st.idx:
            assert newton_cubic_eval(st, kn, float(kn.xs[i])) == pytest.approx(float(kn.fs[i]), rel=1e-12, abs=1e-12)

    def test_unit_bump_value(self):
        # Cubic through (0,0),(1,0),(2,0),(3,1) is x(x-1)(x-2)/6.
        kn = Knots1D(np.arange(4.0), np.array([0.0, 0.0, 0.0, 1.0]))
        st = Stencil1D(k=1, idx=(1, 2, 0, 3), method=ENO, coeffs=None)
        got = lagrange_eval(kn.xs, kn.fs, 1.5)
        assert got == pytest.approx(-0.0625)
        st = eno_select(kn, 1)
        assert newton_cubic_eval(st, kn, 1.5) == pytest.approx(-0.0625, rel=1e-14)


class TestEnoScore:
    def test_quadratic_scores_all_equal(self):
        xs = np.arange(6.0)
        kn = Knots1D(xs, xs * xs)
        scores = [eno_score(kn, 2, 1, 4), eno_score(kn, 2, 0, 1), eno_score(kn, 2, 4, 5)]
        assert scores[0] == pytest.approx(scores[1], rel=1e-12)
        assert scores[0] == pytest.approx(scores[2], rel=1e-12)

    def test_linear_scores_zero(self):
        xs = np.arange(6.0)
        kn = Knots1D(xs, 2.0 * xs - 1.0)
        for p, q in [(1, 4), (0, 1), (4, 5)]:
            assert eno_score(kn, 2, p, q) == pytest.approx(0.0, abs=1e-14)

    def test_step_data_argmin_matches_quadrature(self):
        xs = np.arange(6.0)
        fs = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        kn = Knots1D(xs, fs)
        k = 1  # interval (1, 2)
        cands = [(0, 3), (3, 4)]  # centered and right; left needs k-2 >= 0
        closed = [eno_score(kn, k, p, q) for p, q in cands]
        quad = [quad_secant_distance_sq(xs, fs, k, p, q) for p, q in cands]
        assert int(np.argmin(closed)) == int(np.argmin(quad)) == 0

    def test_scores_proportional_to_quadrature(self):
        rng = np.random.default_rng(2)
        xs = np.cumsum(rng.uniform(0.3, 1.7, 8))
        fs = rng.uniform(-4, 4, 8)
        kn = Knots1D(xs, fs)
        k = 3
        c = (xs[k + 1] - xs[k]) ** 5 / 105.0
        for p, q in [(2, 5), (1, 2), (5, 6)]:
            assert c * eno_score(kn, k, p, q) == pytest.approx(
                quad_secant_distance_sq(xs, fs, k, p, q), rel=1e-9
            )


class TestEnoSelect:
    def test_quadratic_tie_takes_centered(self):
        xs = np.arange(8.0)
        kn = Knots1D(xs, 3.0 * xs * xs)
        st = eno_select(kn, 3)
        assert st.idx == (3, 4, 2, 5)

    def test_step_data_picks_flat_side(self):
        kn = Knots1D(np.arange(6.0), np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]))
        st = eno_select(kn, 1)
        assert sorted(st.idx) == [0, 1, 2, 3]

    def test_first_interval_limits_candidates(self):
        kn = Knots1D(np.arange(5.0), np.array([0.0, 2.0, 1.0, 5.0, 3.0]))
        st = eno_select(kn, 0)
        # only the centered and right-shifted candidates exist at the boundary
        assert set(st.idx) in ({0, 1, 2, 3}, {0, 1, 3, 4})

    def test_insufficient_knots(self):
        with pytest.raises(InsufficientKnotsError):
            eno_select(Knots1D(np.arange(3.0), np.zeros(3)), 0)

    def test_selected_score_is_minimal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(5, 9))
            kn = Knots1D(np.cumsum(rng.uniform(0.2, 2.0, n)), rng.uniform(-5, 5, n))
            for k in range(n - 1):
                st = eno_select(kn, k)
                chosen = eno_score(kn, k, st.idx[2], st.idx[3])
                for p, q in [(k - 1, k + 2), (k - 2, k - 1), (k + 2, k + 3)]:
                    if 0 <= p < n and 0 <= q < n:
                        assert chosen <= eno_score(kn, k, p, q)

    def test_argmin_agrees_with_quadrature_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(6, 10))
            xs = np.cumsum(rng.uniform(0.2, 2.0, n))
            fs = rng.uniform(-5.0, 5.0, n)
            kn = Knots1D(xs, fs)
            for k in range(n - 1):
                st = eno_select(kn, k)
                cands = []
                if k - 1 >= 0 and k + 2 <= n - 1:
                    cands.append((k - 1, k + 2))
                if k - 2 >= 0:
                    cands.append((k - 2, k - 1))
                if k + 3 <= n - 1:
                    cands.append((k + 2, k + 3))
                quad = [quad_secant_distance_sq(xs, fs, k, p, q) for p, q in cands]
                assert (st.idx[2], st.idx[3]) == cands[int(np.argmin(quad))]


def simpson_second_derivative_energy(xs_st, fs_st, u, v):
    """Simpson rule for the (linear) second derivative squared: exact."""
    def second(x):
        # second derivative of the Lagrange cubic via finite differences on
        # the exact polynomial (h small enough for exactness up to rounding)
        h = 1e-4 * (v - u)
        return (
            lagrange_eval(xs_st, fs_st, x + h)
            - 2.0 * lagrange_eval(xs_st, fs_st, x)
            + lagrange_eval(xs_st, fs_st, x - h)
        ) / (h * h)

    mid = 0.5 * (u + v)
    return (v - u) / 6.0 * (second(u) ** 2 + 4.0 * second(mid) ** 2 + second(v) ** 2)


class TestOfObjective:
    def test_collinear_is_zero(self):
        kn = Knots1D(np.arange(6.0), 2.5 * np.arange(6.0) + 1.0)
        assert of_objective(kn, (0, 1, 2, 3), 2) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_constant_second_derivative(self):
        xs = np.arange(4.0)
        kn = Knots1D(xs, xs * xs)
        assert of_objective(kn, (0, 1, 2, 3), 1) == pytest.approx(2.0, rel=1e-14)

    def test_matches_simpson_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            xs = np.cumsum(rng.uniform(0.3, 1.4, 6))
            fs = rng.uniform(-3, 3, 6)
            kn = Knots1D(xs, fs)
            k = 2
            for idx in itertools.combinations(range(6), 4):
                want = simpson_second_derivative_energy(
                    xs[list(idx)], fs[list(idx)], xs[k], xs[k + 1]
                )
                got = of_objective(kn, idx, k) ** 2
                assert got == pytest.approx(want, rel=1e-5, abs=1e-9)


class TestOfSelect:
    def test_outlier_on_line_is_skipped(self):
        xs = np.arange(6.0)
        fs = xs.copy()
        fs[3] = 0.0
        kn = Knots1D(xs, fs)
        st = of_select(kn, 2)
        assert 3 not in st.idx
        ext = Extension1D(kn, OF)
        assert ext(2.5) == pytest.approx(2.5, abs=1e-12)

    def test_exact_cubic_any_subset_reproduces(self):
        xs = np.arange(6.0)
        fs = xs**3 - 2 * xs
        kn = Knots1D(xs, fs)
        ext = Extension1D(kn, OF)
        mid = 2.5
        assert ext(mid) == pytest.approx(mid**3 - 2 * mid, rel=1e-12)

    def test_outlier_in_quadratic_excluded(self):
        # A point is only reliably skipped when it deviates far beyond the
        # background curvature scale; mild bumps can legitimately flatten
        # the cubic over the interval.
        rng = np.random.default_rng(6)
        for _ in range(25):
            xs = np.cumsum(rng.uniform(0.4, 1.3, 6))
            fs = 1.5 * xs * xs - xs + rng.uniform(-1, 1)
            bad = int(rng.integers(0, 6))
            fs = fs.copy()
            fs[bad] += rng.choice([-1.0, 1.0]) * rng.uniform(50.0, 100.0)
            kn = Knots1D(xs, fs)
            k = 2
            st = of_select(kn, k)
            # independent enumeration oracle with Simpson quadrature
            best = None
            best_val = None
            for idx in itertools.combinations(range(6), 4):
                val = simpson_second_derivative_energy(
                    xs[list(idx)], fs[list(idx)], xs[k], xs[k + 1]
                )
                if best_val is None or val < best_val - 1e-9 * abs(best_val):
                    best_val = val
                    best = idx
            assert bad not in st.idx
            assert bad not in best

    def test_tie_break_lexicographic(self):
        # all-collinear data: every subset scores 0; smallest index tuple wins
        kn = Knots1D(np.arange(6.0), np.zeros(6))
        st = of_select(kn, 2)
        assert st.idx == (0, 1, 2, 3)


class TestExtend1D:
    def test_cubic_reproduction_with_extrapolation(self):
        rng = np.random.default_rng(7)
        xs = np.cumsum(rng.uniform(0.3, 1.5, 9))
        fs = 0.5 * xs**3 - xs * xs + 3.0
        kn = Knots1D(xs, fs)
        for method in (ENO, OF):
            ext = Extension1D(kn, method)
            for x in np.linspace(xs[0] - 1.0, xs[-1] + 1.0, 60):
                want = 0.5 * x**3 - x * x + 3.0
                assert ext(float(x)) == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_eno_exact_at_knots_bitwise(self):
        rng = np.random.default_rng(8)
        xs = np.cumsum(rng.uniform(0.2, 1.1, 12))
        fs = rng.uniform(-7, 7, 12)
        ext = Extension1D(Knots1D(xs, fs), ENO)
        for j in range(12):
            assert ext(float(xs[j])) == fs[j]

    def test_of_outliers_on_sine(self):
        rng = np.random.default_rng(9)
        xs = np.linspace(-1.0, 1.0, 41)
        fs = np.sin(np.pi * xs)
        bad = rng.choice(np.arange(3, 38), size=4, replace=False)
        corrupted = fs.copy()
        corrupted[bad] = 0.0
        kn = Knots1D(xs, corrupted)
        e_eno = Extension1D(kn, ENO)
        e_of = Extension1D(kn, OF)
        err_eno = max(abs(e_eno(float(xs[j])) - fs[j]) for j in bad)
        err_of = max(abs(e_of(float(xs[j])) - fs[j]) for j in bad)
        assert err_of < err_eno

    def test_three_knot_fallback_quadratic(self):
        xs = np.array([0.0, 1.0, 3.0])
        fs = 2 * xs * xs - xs
        ext = Extension1D(Knots1D(xs, fs), ENO)
        assert ext(2.0) == pytest.approx(6.0, rel=1e-13)
        assert ext(-1.0) == pytest.approx(3.0, rel=1e-13)

    def test_two_knot_fallback_linear(self):
        ext = Extension1D(Knots1D(np.array([0.0, 2.0]), np.array([1.0, 5.0])), OF)
        assert ext(1.0) == pytest.approx(3.0)
        assert ext(3.0) == pytest.approx(7.0)

    def test_empty_knots(self):
        with pytest.raises(EmptyKnotsError):
            Knots1D(np.array([1.0]), np.array([1.0]))

    def test_nonuniform_knots_property(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            xs = np.cumsum(rng.uniform(0.05, 3.0, n))
            coef = rng.uniform(-2, 2, 4)
            fs = coef[0] + coef[1] * xs + coef[2] * xs**2 + coef[3] * xs**3
            kn = Knots1D(xs, fs)
            for method in (ENO, OF):
                ext = Extension1D(kn, method)
                x = float(rng.uniform(xs[0], xs[-1]))
                want = coef[0] + coef[1] * x + coef[2] * x**2 + coef[3] * x**3
                assert ext(x) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_batch_matches_scalar_bitwise(self):
        rng = np.random.default_rng(11)
        xs = np.cumsum(rng.uniform(0.2, 1.4, 10))
        fs = rng.uniform(-5, 5, 10)
        kn = Knots1D(xs, fs)
        queries = np.concatenate(
            [rng.uniform(xs[0] - 1, xs[-1] + 1, 40), xs[[0, 3, 9]]]
        )
        for method in (ENO, OF):
            ext = Extension1D(kn, method)
            batch = ext.eval_many(queries)
            for i, x in enumerate(queries):
                assert batch[i] == ext(float(x))

    def test_extend_1d_wrapper(self):
        kn = Knots1D(np.arange(5.0), np.arange(5.0) ** 2)
        assert Extension1D(kn, ENO)(2.5) == pytest.approx(6.25, rel=1e-13)


def scalar_select(xs, fs, k, method):
    """The per-interval scan the batched kernel replaced, kept as its oracle.

    Scores the candidates of interval k one at a time in tie-preference
    order and keeps the first strict minimum.  Returns the stencil's knot
    indices, its Newton coefficients and its Horner nodes.
    """
    n = len(xs)
    if method == ENO:
        cands = []
        if k - 1 >= 0 and k + 2 <= n - 1:
            cands.append((k, k + 1, k - 1, k + 2))
        if k - 2 >= 0:
            cands.append((k, k + 1, k - 2, k - 1))
        if k + 3 <= n - 1:
            cands.append((k, k + 1, k + 2, k + 3))
    else:
        cands = list(itertools.combinations(range(max(0, k - 2), min(n - 1, k + 3) + 1), 4))
    best = best_score = None
    for idx in cands:
        x = [xs[i] for i in idx]
        f = [fs[i] for i in idx]
        if method == ENO:
            score = _eno_score_parts(*x, *f)
        else:  # local to the interval, as the kernel scores
            local = [xi - xs[k] for xi in x]
            score = _of_energy(_newton_coeffs(local, f), *local[:3], xs[k + 1] - xs[k])
        if best_score is None or score < best_score:
            best, best_score = idx, score
    x = [xs[i] for i in best]
    return best, _newton_coeffs(x, [fs[i] for i in best]), x[:3]


def ragged_rows(seed, lengths, values):
    """Knot rows of the given lengths; ``values`` picks how ties are forced."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in lengths:
        if rng.integers(0, 2):
            xs = np.cumsum(rng.uniform(0.1, 2.0, n)) - 3.0
        else:
            xs = np.arange(float(n)) * 0.5
        if values == "uniform":
            fs = rng.uniform(-4, 4, n)
        elif values == "rounded":
            fs = np.round(rng.uniform(-2, 2, n))
        else:
            fs = np.full(n, float(rng.integers(-2, 3)))
        rows.append(Knots1D(xs, fs))
    return rows


def table_of(rows, method):
    """A KnotTable over ``rows`` laid into one store, as a RowLikeGrid lays them."""
    grid = RowLikeGrid(ys=np.arange(float(len(rows))), rows=rows)
    return KnotTable(grid.xs, grid.fs, grid.start, method)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def row_pieces(table, r):
    """Bits of row r's pieces in a KnotTable: the interval stencils'
    coefficients ``(n - 1, 4)`` and nodes ``(n - 1, 3)``, then the end
    cubics' coefficients and nodes."""
    lo, hi = table.pieces[r], table.pieces[r + 1] - 1
    return (bits(table.c[:, lo + 1 : hi].T), bits(table.x[:, lo + 1 : hi].T),
            bits(table.c[:, [lo, hi]].T), bits(table.x[:, [lo, hi]].T))


def assert_short_row_pieces(table, r, row):
    """Each of a 2-3 knot row's n + 1 table pieces equals, bit for bit, the
    Newton form through all its knots, as evaluated before short rows became
    pieces, across the piece's query range: below ``x_0``, inside interval
    k, above ``x[n-1]`` (a query on a knot takes the knot's value instead)."""
    xs, fs, n = row.xs, row.fs, len(row)
    assert table.pieces[r + 1] - table.pieces[r] == n + 1
    whole = _newton_coeffs(list(xs), list(fs))
    ranges = [(xs[0] - 1e6, xs[0]), *zip(xs[:-1], xs[1:]), (xs[-1], xs[-1] + 1e6)]
    for k, (lo, hi) in zip(range(-1, n), ranges):
        x = np.unique(np.concatenate([np.nextafter([lo, hi], [hi, lo]), np.linspace(lo, hi, 7)]))
        x = x[(x > lo) & (x < hi)]
        p = table.pieces[r] + 1 + k
        assert bits(_newton_eval(table.c[:, p], table.x[:, p], x)) == \
            bits(_newton_eval(whole, list(xs), x)), (k, xs, fs)


class TestShortRows:
    """A row of 2-3 knots is stored as n + 1 padded cubic pieces."""

    @pytest.mark.parametrize("gaps", [(1.0,), (3.0,), (1.0, 1.0), (3.0, 1.0), (1.0, 3.0),
                                      (3.0, 3.0)])
    def test_signed_zeros_survive_the_padding(self, gaps):
        # Every row of values from a pool of signed zeros and subnormals: over
        # gaps of 3, -5e-324 differences underflow to -0.0 divided
        # differences, so zero results carry signs a wrong padding would flip.
        pool = (0.0, -0.0, 5e-324, -5e-324, -1e-323, 1.0)
        xs = np.cumsum((-1.5, *gaps))
        rows = [Knots1D(xs, np.array(fs)) for fs in itertools.product(pool, repeat=xs.size)]
        x = np.concatenate([xs, xs - 0.25, xs + 0.5, [xs[0] - 1e6, xs[-1] + 1e6]])
        at = np.searchsorted(xs, x)
        hit = (at < xs.size) & (xs[np.minimum(at, xs.size - 1)] == x)
        for method in (ENO, OF):
            table = table_of(rows, method)
            got = table.eval(np.arange(len(rows)), x)
            for r, row in enumerate(rows):
                assert_short_row_pieces(table, r, row)
                want = _newton_eval(_newton_coeffs(list(xs), list(row.fs)), list(xs), x)
                want[hit] = row.fs[at[hit]]
                assert bits(got[r]) == bits(want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12), cols=st.integers(1, 3),
       values=st.sampled_from(["uniform", "rounded", "constant", "tiny"]))
def test_of_end_cubics_are_the_end_intervals_stencils(seed, n, cols, values):
    """On a row of four or more, OF's end intervals have one candidate, the
    four end knots, so the cubics beyond the row are their stencils bit for
    bit; a query on an end knot then averages one cubic with itself, and the
    on-knot rule needs no clip there.  Rows and column-batched values alike."""
    rng = np.random.default_rng(seed)
    xs = ragged_rows(seed, [n], "uniform")[0].xs
    fs = {"uniform": lambda: rng.uniform(-4, 4, (n, cols)),
          "rounded": lambda: np.round(rng.uniform(-2, 2, (n, cols))),
          "constant": lambda: np.full((n, cols), float(rng.integers(-2, 3))),
          "tiny": lambda: rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310], (n, cols))}[values]()
    end = _pieces(xs, fs, 0, n, np.array([-1, n - 1]), OF)
    inner = _pieces(xs, fs, 0, n, np.array([0, n - 2]), OF)
    assert [bits(a) for a in end] == [bits(a) for a in inner]
    table = Extension1D(Knots1D(xs, fs[:, 0]), OF)._table
    assert bits(table.c[:, [0, n]]) == bits(table.c[:, [1, n - 1]])
    assert bits(table.x[:, [0, n]]) == bits(table.x[:, [1, n - 1]])


class TestSelectionKernel:
    """The batched kernel picks what the scalar scan picks, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.one_of(st.sampled_from([2, 3, 4, 5]), st.integers(4, 40)),
                         min_size=2, max_size=6),
        values=st.sampled_from(["uniform", "rounded", "constant"]),
        block=st.sampled_from([3, 4096]),
    )
    def test_ragged_rows_match_scalar_scan(self, seed, lengths, values, block):
        # Rows of 2-3 knots stay out of the kernel: their pieces are their
        # interpolant, padded to a cubic.
        rows = ragged_rows(seed, lengths, values)
        full = [row for row in rows if len(row) >= 4]
        grid = RowLikeGrid(ys=np.arange(float(len(rows))), rows=tuple(rows))
        for method in (ENO, OF):
            with mock.patch.object(interp1d, "_BLOCK", block):
                ext = Extension2D(grid, method)
                alone = [Extension1D(row, method)._table for row in full]
            table = ext._table
            assert table.pieces.size == len(rows) + 1
            assert len(ext._rows) == len(rows)  # thin per-row views of the one table
            assert all(e.knots is row and e._table is table for e, row in zip(ext._rows, grid.rows))
            select = eno_select if method == ENO else of_select
            for (r, row), one in zip([(r, row) for r, row in enumerate(rows) if len(row) >= 4],
                                     alone):
                want = [scalar_select(row.xs, row.fs, k, method) for k in range(len(row) - 1)]
                want_c = bits([w[1] for w in want])
                want_x = bits([w[2] for w in want])
                ends = [(_newton_coeffs(list(row.xs[e]), list(row.fs[e])), row.xs[e][:3])
                        for e in (slice(0, 4), slice(len(row) - 4, len(row)))]
                want_ends = bits([e[0] for e in ends]), bits([e[1] for e in ends])
                assert row_pieces(table, r) == (want_c, want_x, *want_ends)
                assert row_pieces(one, 0) == (want_c, want_x, *want_ends)
                for k in range(len(row) - 1):
                    st_k = select(row, k)
                    assert st_k.idx == want[k][0]
                    assert bits(st_k.coeffs) == bits(want[k][1])
            for r, row in enumerate(rows):
                if len(row) < 4:
                    assert_short_row_pieces(table, r, row)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nrows=st.integers(4, 9),
        values=st.sampled_from(["uniform", "rounded", "constant"]),
        block=st.sampled_from([3, 15, 4096]),
    )
    def test_cross_row_selection_matches_scalar_scan(self, seed, nrows, values, block):
        # Extension2D.eval_line builds cross-row pieces with _pieces, the
        # values of every column sharing the row heights; each (piece,
        # column) pair must get its own scalar-scan stencil, or its end cubic,
        # however the pieces are split into calls of one kind each.
        rng = np.random.default_rng(seed)
        ys = np.cumsum(rng.uniform(0.2, 1.5, nrows))
        cols = [row.fs for row in ragged_rows(seed, [nrows] * 7, values)]
        V = np.stack(cols, axis=1)  # V[j] holds knot row j's values per column
        ks = rng.permutation(np.arange(-1, nrows))  # -1 and nrows - 1: the end cubics
        ends = {-1: slice(0, 4), nrows - 1: slice(nrows - 4, nrows)}
        end = np.isin(ks, list(ends))
        ks = np.concatenate([ks[~end], ks[end]])
        cuts = sorted({*range(0, ks.size, block), int((~end).sum()), ks.size})
        for method in (ENO, OF):
            parts = [_pieces(ys, V, 0, nrows, ks[lo:hi], method)
                     for lo, hi in zip(cuts[:-1], cuts[1:])]
            c, nodes = (np.concatenate(part, axis=1) for part in zip(*parts))
            for i, k in enumerate(ks):
                for col in range(V.shape[1]):
                    if k in ends:
                        four = ends[k]
                        want_c = _newton_coeffs(list(ys[four]), list(V[four, col]))
                        want_x = ys[four][:3]
                    else:
                        _, want_c, want_x = scalar_select(ys, V[:, col], k, method)
                    assert bits(c[:, i, col]) == bits(want_c)
                    assert bits(nodes[:, i, col]) == bits(want_x)

    def test_overflowing_scores_resolve_as_the_scan_does(self):
        # Huge values overflow scores to inf and NaN; the scan then keeps
        # its first candidate, and the kernel must pick the same.
        rng = np.random.default_rng(12)
        rows = [
            Knots1D(np.cumsum(rng.uniform(0.01, 2.0, n)),
                    rng.choice([1.7e308, -1.7e308, 1e150, 0.0, 1.0], n))
            for n in rng.integers(4, 12, 200)
        ]
        with np.errstate(all="ignore"):
            for method in (ENO, OF):
                table = table_of(rows, method)
                select = eno_select if method == ENO else of_select
                for r, row in enumerate(rows):
                    want = [scalar_select(row.xs, row.fs, k, method) for k in range(len(row) - 1)]
                    assert [select(row, k).idx for k in range(len(row) - 1)] == [w[0] for w in want]
                    assert row_pieces(table, r)[0] == bits([w[1] for w in want])


def terrain_raster(size, seed):
    """The benchmark's seeded DEM (``hexbench/inputs.py``), loaded by path."""
    path = Path(__file__).resolve().parents[1] / "hexbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.terrain_raster(size, seed)


class TestBuildMemory:
    """A table build holds the table it keeps plus O(_BLOCK), not per-interval
    index tables.  The knots live once, in the grid's store, which the knot
    table and the Catmull-Rom baseline read without copying."""

    @pytest.mark.parametrize("method", [ENO, OF])
    def test_build_holds_table_plus_blocks(self, method):
        grid = build_row_like_grid(terrain_raster(150, 11))
        block = 256
        with mock.patch.object(interp1d, "_BLOCK", block):
            tracemalloc.start()
            try:
                table = KnotTable(grid.xs, grid.fs, grid.start, method)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert table.pieces[-1] == 150 * 151
        assert peak - kept < 400 * block * 8
        assert table.xs is grid.xs and table.fs is grid.fs

    def test_one_knot_store(self):
        grid = build_row_like_grid(terrain_raster(12, 11))
        for method in (ENO, OF):
            table = Extension2D(grid, method)._table
            assert np.shares_memory(table.xs, grid.xs) and np.shares_memory(table.fs, grid.fs)
        assert np.shares_memory(CrsExtension(grid).V, grid.fs)
        rows = [Knots1D(np.arange(3.0), np.ones(3)), Knots1D(np.arange(4.0), np.zeros(4))]
        grid = RowLikeGrid(ys=[0.0, 1.0], rows=rows)  # the caller's rows are copied once
        assert not any(np.shares_memory(a.xs, grid.xs) for a in rows)
        assert all(np.shares_memory(r.xs, grid.xs) and np.shares_memory(r.fs, grid.fs)
                   and bits(r.xs) == bits(a.xs) and bits(r.fs) == bits(a.fs)
                   for r, a in zip(grid.rows, rows))

    @pytest.mark.parametrize("method", [ENO, OF])
    def test_extension_keeps_its_table_and_one_store(self, method):
        # A second copy of the knots would keep 16 B per knot more: 1.44 MB
        # here, against 2000 B per row for the row views and their objects.
        raster = terrain_raster(300, 11)
        tracemalloc.start()
        try:
            ext = Extension2D(build_row_like_grid(raster), method)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        grid, table = ext.grid, ext._table
        own = table.c.nbytes + table.x.nbytes + grid.xs.nbytes + grid.fs.nbytes
        assert kept < own + 2000 * grid.nrows
