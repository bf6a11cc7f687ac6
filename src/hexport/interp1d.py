"""One-dimensional cubic extension machinery.

Newton-form cubics over strictly increasing knots, with two stencil
selection rules applied per inter-knot interval:

* ``"eno"`` keeps both interval endpoints in the stencil and picks the
  flanking knot pair whose cubic stays L2-closest to the secant line of the
  interval, so jumps in the data do not leak oscillations into neighboring
  intervals.  The selection uses a closed-form score; only the ordering of
  candidate scores matters, so a knot-independent positive factor is dropped.
* ``"of"`` (outlier filtering) considers every 4-knot subset of the six-knot
  neighborhood and picks the cubic with the smallest L2 energy of its second
  derivative.  Anomalous knots are simply left out of the winning stencil,
  at the price of a possibly discontinuous extension.

One batched kernel, :func:`select_stencils`, applies either rule to any
number of intervals, scoring each on its values scaled by a power of two,
so values near the float range's ends neither overflow a score nor change
a pick; :func:`eno_select` and :func:`of_select` view one interval.  One
builder, ``_pieces``, turns any set of intervals into cubic pieces, the
end cubics beyond a row included; its values may carry trailing columns
that share the knots, as in the 2D cross-row combine.  A
:class:`KnotTable` builds the pieces of the knot rows of a flat store it
is given, a row-like grid's or one row's, copying none of it, and
evaluates any set of rows with one gather and one Horner pass;
:class:`Extension1D` is a one-row view of it.  The table writes the
builder's blocks of ``_BLOCK`` pieces straight into itself, so a build
holds the table plus O(``_BLOCK``) temporaries.

Both rules reproduce polynomials up to degree three exactly.  Outside the
knot range the cubic through the four outermost knots is extrapolated.
Knot sets with fewer than four points degrade to the quadratic or linear
interpolant through all of them, stored as each of their pieces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateKnotError, EmptyKnotsError, InsufficientKnotsError

ENO = "eno"
OF = "of"

_METHODS = (ENO, OF)


class Knots1D:
    """A 1D reticulated function: values ``fs`` on strictly increasing ``xs``."""

    def __init__(self, xs, fs):
        xs = np.asarray(xs, dtype=np.float64)
        fs = np.asarray(fs, dtype=np.float64)
        if xs.ndim != 1 or fs.ndim != 1 or xs.size != fs.size:
            raise ValueError("xs and fs must be 1D arrays of equal length")
        if xs.size < 2:
            raise EmptyKnotsError("need at least 2 knots")
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(fs)):
            raise ValueError("knots and values must be finite")
        if not np.all(np.diff(xs) > 0.0):
            raise ValueError("knot abscissas must be strictly increasing")
        self.xs, self.fs = xs, fs

    @classmethod
    def _trusted(cls, xs, fs):
        """Knots of float64 arrays already checked as ``__init__`` would."""
        knots = cls.__new__(cls)
        knots.xs, knots.fs = xs, fs
        return knots

    def __len__(self):
        return self.xs.size


@dataclass(frozen=True)
class Stencil1D:
    """Four knot indices and the cached Newton coefficients of their cubic.

    ``idx`` is ordered as passed to the divided-difference table, so
    ``coeffs[i]`` is the order-i divided difference over ``idx[: i + 1]``.
    """

    k: int
    idx: tuple
    method: str
    coeffs: tuple = field(repr=False)


def divided_difference(xs, fs) -> float:
    """Top-order divided difference of 2..4 points.

    Symmetric under any permutation of the (x, f) pairs.
    """
    xs = [float(x) for x in xs]
    fs = [float(f) for f in fs]
    n = len(xs)
    if not 2 <= n <= 4:
        raise ValueError("divided_difference takes 2 to 4 points")
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] == xs[j]:
                raise DuplicateKnotError(f"duplicate knot {xs[i]}")
    return _newton_coeffs(xs, fs)[-1]


def _newton_coeffs(xs, fs):
    """Newton coefficients (divided differences of order 0..n-1).

    Works elementwise when the ``fs`` entries are arrays, which lets the
    same code serve scalar and batched evaluation.
    """
    n = len(xs)
    coeffs = list(fs)
    for order in range(1, n):
        for i in range(n - 1, order - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - order])
    return coeffs


def _newton_eval(coeffs, xs, x):
    """Horner evaluation of the Newton form. Scalar or elementwise."""
    v = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        v = coeffs[i] + (x - xs[i]) * v
    return v


def newton_cubic_eval(stencil: Stencil1D, knots: Knots1D, xi: float) -> float:
    """Evaluate the stencil's cubic at ``xi``. Exact at the stencil knots."""
    xs = [knots.xs[i] for i in stencil.idx]
    return float(_newton_eval(stencil.coeffs, xs, xi))


def _eno_score_parts(xk, xk1, xp, xq, fk, fk1, fp, fq):
    """Oscillation score of the cubic on (k, k+1, p, q) relative to the secant.

    Equals the squared L2 distance between the cubic and the linear
    interpolant on the interval, up to a positive factor that depends only
    on the interval width.  Scalar or elementwise.
    """
    d_kk1 = (fk1 - fk) / (xk1 - xk)
    d_k1p = (fp - fk1) / (xp - xk1)
    dd2 = (d_k1p - d_kk1) / (xp - xk)
    d_pq = (fq - fp) / (xq - xp)
    dd2b = (d_pq - d_k1p) / (xq - xk1)
    dd3 = (dd2b - dd2) / (xq - xk)
    delta = (xk1 - xk) * dd3
    lam = ((xk - xp) / (xk1 - xk)) * delta + dd2
    mu = lam + delta
    return lam * lam + mu * mu + 1.5 * lam * mu


def _neighborhood(knots: Knots1D, k: int):
    """The knot count and interval k's neighborhood, knots k - 2 .. k + 3 in the row."""
    n = len(knots)
    if not 0 <= k <= n - 2:
        raise ValueError(f"interval index {k} out of range")
    return n, max(0, k - 2), min(n - 1, k + 3)


def eno_score(knots: Knots1D, k: int, p: int, q: int) -> float:
    """Relative oscillation score of the candidate flanking pair (p, q)."""
    _, lo, hi = _neighborhood(knots, k)
    for i in (p, q):
        if not lo <= i <= hi or i in (k, k + 1):
            raise ValueError(f"knot index {i} not a valid flank of interval {k}")
    if p == q:
        raise ValueError("flanking knots must be distinct")
    xs, fs = knots.xs, knots.fs
    return float(
        _eno_score_parts(xs[k], xs[k + 1], xs[p], xs[q], fs[k], fs[k + 1], fs[p], fs[q])
    )


def _of_energy(c, x1, x2, x3, width):
    """Integral over (0, width) of the squared second derivative of a cubic.

    The abscissas are local to an interval ``(0, width)``.  ``c`` holds the
    Newton coefficients of the cubic on nodes x1..x4 (the last node does not
    enter).  The second derivative is linear, ``A*x + B`` with A = 6*c3 and
    B = 2*c2 - 2*c3*(x1+x2+x3), so the integral has a short closed form.
    Scalar or elementwise.

    In absolute coordinates its three terms would each be about
    ``(x / width)**2`` times their sum: near x = 5e6 most digits of the
    score would cancel, and the stencil choice would depend on the
    georeference.
    """
    a = 6.0 * c[3]
    b = 2.0 * c[2] - 2.0 * c[3] * (x1 + x2 + x3)
    return a * a * (width * width * width) / 3.0 + a * b * (width * width) + b * b * width


def of_objective(knots: Knots1D, idx, k: int) -> float:
    """L2 norm over interval k of the second derivative of the cubic on idx."""
    _, lo, hi = _neighborhood(knots, k)
    idx = tuple(int(i) for i in idx)
    if len(idx) != 4 or len(set(idx)) != 4:
        raise ValueError("stencil must hold four distinct knot indices")
    if any(not lo <= i <= hi for i in idx):
        raise ValueError(f"stencil {idx} leaves the neighborhood of interval {k}")
    left = knots.xs[k]
    xs = [knots.xs[i] - left for i in idx]
    c = _newton_coeffs(xs, [knots.fs[i] for i in idx])
    return float(np.sqrt(max(_of_energy(c, *xs[:3], knots.xs[k + 1] - left), 0.0)))


# Candidates in tie-preference order, as slots of interval k's window (slot
# s holds knot k - 2 + s): ENO adds the centered, left, then right flank pair
# to the interval; OF takes every 4-knot subset, lexicographically.
_CANDIDATES = {
    ENO: np.array([(2, 3, 1, 4), (2, 3, 0, 1), (2, 3, 4, 5)]),
    OF: np.array(list(itertools.combinations(range(6), 4))),
}
_BLOCK = 4096  # block size: pieces per build step, points per evaluation


def _windows(xs, start, n, k):
    """Six-knot windows of intervals ``k`` of rows ``xs[start : start + n]``.

    Returns slot-major ``(6, N)`` abscissas, slot validity, and each slot's
    knot index into ``xs``.  A slot past the row's end gets the end knot at
    a dummy abscissa, a window span further out per slot, so windows stay
    strictly increasing and no candidate divides by zero.
    """
    local = k + np.arange(-2, 4)[:, None]
    inside = np.clip(local, 0, n - 1)
    valid = local == inside
    at = start + inside
    wx = xs[at]
    span = wx[5] - wx[0]
    wx = np.where(valid, wx, wx + (local - inside) * span)
    return wx, valid, at


def select_stencils(wx, wf, valid, method: str):
    """ENO/OF stencils of intervals from slot-major windows: values ``wf``
    ``(6, *S)``, abscissas ``wx`` and ``valid`` broadcasting against them.

    Among candidates without invalid slots, a scan in tie-preference order
    keeping a strict running minimum keeps the first if its score is NaN or
    unbeaten, else the first least score.  Returns the chosen slots, Newton
    coefficients and Horner nodes, ``(4|4|3, *S)``.  Scores are quadratic
    in the values, so each window is scored exactly, in the same order, on
    its values scaled to a largest of [0.5, 1); coefficients are unscaled.
    """
    cands = _CANDIDATES[method].T
    f = list(np.ldexp(wf, -np.frexp(np.abs(wf).max(axis=0))[1])[cands])
    if method == ENO:
        score = _eno_score_parts(*wx[cands], *f)
    else:  # on abscissas local to the interval, see _of_energy
        x = list(wx[cands] - wx[2])
        score = _of_energy(_newton_coeffs(x, f), *x[:3], wx[3] - wx[2])
    usable = valid[cands].all(axis=0)
    at = np.indices(score.shape[1:], sparse=True)
    first = np.argmax(usable, axis=0)
    keep_first = np.isnan(score[(first, *at)])
    score = np.where(usable & ~np.isnan(score), score, np.inf)
    best = np.argmin(score, axis=0)
    best = np.where(keep_first | (score[(best, *at)] == np.inf), first, best)
    chosen = cands[:, best]
    x = np.broadcast_to(wx, wf.shape)[(chosen, *at)]
    c = _newton_coeffs(list(x), list(wf[(chosen, *at)]))
    return chosen, np.array(c), x[:3]


def _is_end(k, n):
    """Pieces on end knots: below and above a row, and all of a 2-3 knot row's."""
    return (k < 0) | (k >= n - 1) | (n < 4)


def _pieces(xs, fs, start, n, k, method: str, window=None):
    """Cubic pieces ``k`` of rows ``xs[start : start + n]``: interval k's
    selected stencil, or the cubic on the row's first four knots (``k = -1``)
    or last four (``k = n - 1``), as Newton coefficients ``(4, *S)`` and
    Horner nodes ``(3, *S)``.  Trailing axes of ``fs`` are columns that share
    the knots.  ``window`` is ``_windows`` of ``k``, if the caller has it.

    All pieces of a call are of one kind (:func:`_is_end`).  A row of 2-3
    knots has its Newton form padded on repeats of its last knot, which each
    piece's queries lie above (``k = n - 1``) or below: padded coefficients
    of -0.0 above and +0.0 below make each padded Horner level add -0.0, so
    every bit of the interpolant stays, signed zeros included.
    """
    columns = (..., *[None] * (fs.ndim - 1))  # an index adding the column axes
    if _is_end(k, n).all():
        i = np.arange(4)[:, None]
        at = start + np.minimum(np.where(k < 0, 0, np.maximum(n - 4, 0)) + i, n - 1)
        x = xs[at][columns]
        with np.errstate(divide="ignore", invalid="ignore"):  # padded orders repeat x[n-1]
            c = np.array(_newton_coeffs(list(x), list(fs[at])))
        c = np.where((i < n)[columns], c, np.where(k < n - 1, 0.0, -0.0)[columns])
        return c, np.broadcast_to(x[:3], (3, *c.shape[1:]))
    wx, valid, at = window or _windows(xs, start, n, k)
    return select_stencils(wx[columns], fs[at], valid[columns], method)[1:]


def _select_one(knots: Knots1D, k: int, method: str) -> Stencil1D:
    """One-interval view of :func:`select_stencils`."""
    n = _neighborhood(knots, k)[0]
    if n < 4:
        raise InsufficientKnotsError(f"interval {k} has fewer than 4 usable knots")
    wx, valid, at = _windows(knots.xs, 0, n, np.array([k]))
    chosen, c, _ = select_stencils(wx, knots.fs[at], valid, method)
    idx = tuple((k - 2 + chosen[:, 0]).tolist())
    return Stencil1D(k=k, idx=idx, method=method, coeffs=tuple(c[:, 0]))


def eno_select(knots: Knots1D, k: int) -> Stencil1D:
    """Pick the least-oscillating cubic stencil containing interval k.

    Ties go to the centered candidate, then to the left-shifted one.
    """
    return _select_one(knots, k, ENO)


def of_select(knots: Knots1D, k: int) -> Stencil1D:
    """Pick the flattest cubic stencil in the neighborhood of interval k.

    Enumerates all 4-knot subsets; unlike ENO the winner need not contain
    the interval endpoints, which is what lets it skip outliers.  Ties go
    to the lexicographically smallest index tuple.
    """
    return _select_one(knots, k, OF)


def _on_knot(xs, start, n, pos, x, method: str):
    """Queries ``x`` at left insertion index ``pos`` in rows ``xs[start : start + n]``:
    their knot index ``at`` (the last past the row); ``direct``, those on a knot,
    which take its value; ``mean``, those on a knot of an OF row of four or more,
    which take OF's mean of one-sided limits, pieces ``lo`` and ``hi`` beside it;
    ``lo = pos - 1`` alone off a knot (-1 below the row, n - 1 above).  A cubic beyond an
    OF row is its end interval's one candidate, so an end knot's mean needs no clip.
    """
    at = start + np.minimum(pos, n - 1)
    hit = (pos < n) & (xs[at] == x)
    mean = hit & ((method == OF) & (n >= 4))
    return at, hit ^ mean, mean, pos - 1, pos


class KnotTable:
    """The cubic pieces evaluating knot rows laid out in one flat (CSR) store.

    Row r holds knots ``xs[start[r] : start[r + 1]]`` with values ``fs``
    alike, the caller's arrays, not copies, and, from ``pieces[r]`` on, n + 1
    pieces: the cubic on its first four knots (below the row), each
    interval's stencil, the cubic on its last four knots (above the row), as
    Newton coefficients ``c`` ``(4, P)`` and Horner nodes ``x`` ``(3, P)``.
    In a row of 2-3 knots all n + 1 pieces are its interpolant, padded.

    The build sweeps the pieces in blocks of ``_BLOCK``, one ``_pieces``
    call per kind of piece in a block, written into ``c`` and ``x`` in place.
    Beyond the table it holds O(``_BLOCK``) memory.
    """

    def __init__(self, xs, fs, start, method: str):
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        self.xs, self.fs, self.start = xs, fs, start
        n = np.diff(start)
        self.pieces = np.concatenate([[0], np.cumsum(n + 1)])
        self.c, self.x = np.empty((4, self.pieces[-1])), np.empty((3, self.pieces[-1]))
        for lo in range(0, self.pieces[-1], _BLOCK):
            p = np.arange(lo, min(lo + _BLOCK, self.pieces[-1]))
            r = self.pieces.searchsorted(p, "right") - 1
            k = p - self.pieces[r] - 1
            end = _is_end(k, n[r])
            for part in (~end, end):  # one kind of piece per call
                q, s = p[part], r[part]
                self.c[:, q], self.x[:, q] = _pieces(self.xs, self.fs, self.start[s], n[s],
                                                     k[part], method)

    def eval(self, rows, x) -> np.ndarray:
        """Rows ``rows`` (an index array) at points ``x``, ``(len(rows), len(x))``:
        one gather of pieces and one Horner pass, then the knots, by
        :func:`_on_knot`."""
        step = max(_BLOCK // max(x.size, 1), 1)  # rows per block of about _BLOCK points
        if len(rows) > step:
            blocks = [self.eval(rows[b : b + step], x) for b in range(0, len(rows), step)]
            return np.concatenate(blocks)
        s, e = self.start[rows, None], self.start[rows + 1, None]
        pos = np.empty((len(rows), x.size), dtype=np.int64)
        for i, (a, b) in enumerate(zip(s.ravel().tolist(), e.ravel().tolist())):
            pos[i] = self.xs[a:b].searchsorted(x)
        at, direct, mean, lo, hi = _on_knot(self.xs, s, e - s, pos, x, self.method)
        p = self.pieces[rows, None] + 1  # each row's interval 0
        g = p + lo
        out = _newton_eval(self.c[:, g], self.x[:, g], x)
        out[direct] = self.fs[at[direct]]
        if mean.any():
            q = (p + hi)[mean]
            right = _newton_eval(self.c[:, q], self.x[:, q], x[mean.nonzero()[1]])
            out[mean] = 0.5 * (out[mean] + right)
        return out


class Extension1D:
    """An everywhere-defined extension of one knot row: row ``row`` of a
    :class:`KnotTable`, or of its own one-row table over ``knots``.  Fewer
    than four knots give the interpolant through all of them.
    """

    def __init__(self, knots: Knots1D, method: str, table=None, row: int = 0):
        if table is None:
            table = KnotTable(knots.xs, knots.fs, np.array([0, len(knots)]), method)
        self._table = table
        self.knots = knots
        self.method = method
        self._row = np.array([row])

    def __call__(self, xi: float) -> float:
        return float(self.eval_many(np.array([xi], dtype=np.float64))[0])

    def eval_many(self, x) -> np.ndarray:
        """Evaluate the extension at an array of points."""
        x = np.asarray(x, dtype=np.float64)
        return self._table.eval(self._row, x.ravel())[0].reshape(x.shape)

