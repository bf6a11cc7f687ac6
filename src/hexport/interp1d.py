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
number of intervals; :func:`eno_select` and :func:`of_select` view one.

Both rules reproduce polynomials up to degree three exactly.  Outside the
knot range the cubic through the four outermost knots is extrapolated.
Knot sets with fewer than four points degrade to the quadratic or linear
interpolant through all of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateKnotError, EmptyKnotsError, InsufficientKnotsError

ENO = "eno"
OF = "of"

_METHODS = (ENO, OF)


@dataclass(frozen=True)
class Knots1D:
    """A 1D reticulated function: values ``fs`` on strictly increasing ``xs``."""

    xs: np.ndarray
    fs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        fs = np.asarray(self.fs, dtype=np.float64)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "fs", fs)
        if xs.ndim != 1 or fs.ndim != 1 or xs.size != fs.size:
            raise ValueError("xs and fs must be 1D arrays of equal length")
        if xs.size < 2:
            raise EmptyKnotsError("need at least 2 knots")
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(fs)):
            raise ValueError("knots and values must be finite")
        if not np.all(np.diff(xs) > 0.0):
            raise ValueError("knot abscissas must be strictly increasing")

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


def eno_score(knots: Knots1D, k: int, p: int, q: int) -> float:
    """Relative oscillation score of the candidate flanking pair (p, q)."""
    n = len(knots)
    if not 0 <= k <= n - 2:
        raise ValueError(f"interval index {k} out of range")
    lo, hi = max(0, k - 2), min(n - 1, k + 3)
    for i in (p, q):
        if not lo <= i <= hi or i in (k, k + 1):
            raise ValueError(f"knot index {i} not a valid flank of interval {k}")
    if p == q:
        raise ValueError("flanking knots must be distinct")
    xs, fs = knots.xs, knots.fs
    return float(
        _eno_score_parts(xs[k], xs[k + 1], xs[p], xs[q], fs[k], fs[k + 1], fs[p], fs[q])
    )


def _of_energy(c, x1, x2, x3, u, v):
    """Integral over (u, v) of the squared second derivative of a cubic.

    ``c`` holds the Newton coefficients of the cubic on nodes x1..x4 (the
    last node does not enter).  The second derivative is linear,
    ``A*x + B`` with A = 6*c3 and B = 2*c2 - 2*c3*(x1+x2+x3), so the
    integral has a short closed form.  Scalar or elementwise.
    """
    a = 6.0 * c[3]
    b = 2.0 * c[2] - 2.0 * c[3] * (x1 + x2 + x3)
    return (
        a * a * (v * v * v - u * u * u) / 3.0
        + a * b * (v * v - u * u)
        + b * b * (v - u)
    )


def of_objective(knots: Knots1D, idx, k: int) -> float:
    """L2 norm over interval k of the second derivative of the cubic on idx."""
    n = len(knots)
    if not 0 <= k <= n - 2:
        raise ValueError(f"interval index {k} out of range")
    idx = tuple(int(i) for i in idx)
    if len(idx) != 4 or len(set(idx)) != 4:
        raise ValueError("stencil must hold four distinct knot indices")
    lo, hi = max(0, k - 2), min(n - 1, k + 3)
    if any(not lo <= i <= hi for i in idx):
        raise ValueError(f"stencil {idx} leaves the neighborhood of interval {k}")
    xs = [knots.xs[i] for i in idx]
    c = _newton_coeffs(xs, [knots.fs[i] for i in idx])
    return float(np.sqrt(max(_of_energy(c, *xs[:3], knots.xs[k], knots.xs[k + 1]), 0.0)))


# Candidates in tie-preference order, as slots of interval k's window (slot
# s holds knot k - 2 + s): ENO adds the centered, left, then right flank pair
# to the interval; OF takes every 4-knot subset, lexicographically.
_CANDIDATES = {
    ENO: np.array([(2, 3, 1, 4), (2, 3, 0, 1), (2, 3, 4, 5)]),
    OF: np.array(list(itertools.combinations(range(6), 4))),
}
_BLOCK = 4096  # intervals per select_stencils call in select_rows


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
    """ENO/OF stencils of N intervals from slot-major ``(6, N)`` windows.

    ``wx`` and ``valid`` may be ``(6, 1)``, shared by all intervals.  Among
    candidates without invalid slots, a scan in tie-preference order keeping
    a strict running minimum keeps the first if its score is NaN or unbeaten,
    else the first least score.  Returns chosen slots, Newton coefficients
    and Horner nodes, ``(N, 4|4|3)``.
    """
    cands = _CANDIDATES[method].T
    x, f = list(wx[cands]), list(wf[cands])
    score = (_eno_score_parts(*x, *f) if method == ENO
             else _of_energy(_newton_coeffs(x, f), *x[:3], wx[2], wx[3]))
    usable = valid[cands].all(axis=0)
    cols = np.arange(score.shape[1])
    first = np.argmax(usable, axis=0)
    keep_first = np.isnan(score[first, cols])
    score = np.where(usable & ~np.isnan(score), score, np.inf)
    best = np.argmin(score, axis=0)
    best = np.where(keep_first | (score[best, cols] == np.inf), first, best)
    chosen = cands.T[best]
    x = np.broadcast_to(wx, wf.shape)[chosen.T, cols]
    c = _newton_coeffs(list(x), list(wf[chosen.T, cols]))
    return chosen, np.array(c).T, x[:3].T


def select_rows(rows, method: str):
    """:func:`select_stencils` over every interval of rows of 4+ knots.

    Intervals go row after row, in blocks of ``_BLOCK`` to bound the
    temporaries.  Returns knot indices within each row, Newton coefficients
    and Horner nodes, ``(N, 4|4|3)``.
    """
    n = np.array([len(row) for row in rows], dtype=np.int64)
    start = np.repeat(np.cumsum(n) - n, n - 1)
    k = np.arange(start.size) - np.repeat(np.cumsum(n - 1) - (n - 1), n - 1)
    n = np.repeat(n, n - 1)
    xs = np.concatenate([row.xs for row in rows] or [[]])
    fs = np.concatenate([row.fs for row in rows] or [[]])
    idx, c, nodes = np.empty((k.size, 4), np.int64), np.empty((k.size, 4)), np.empty((k.size, 3))
    for lo in range(0, k.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        wx, valid, at = _windows(xs, start[part], n[part], k[part])
        chosen, c[part], nodes[part] = select_stencils(wx, fs[at], valid, method)
        idx[part] = k[part, None] - 2 + chosen
    return idx, c, nodes


def _select_one(knots: Knots1D, k: int, method: str) -> Stencil1D:
    """One-interval view of :func:`select_stencils`."""
    n = len(knots)
    if not 0 <= k <= n - 2:
        raise ValueError(f"interval index {k} out of range")
    if n < 4:
        raise InsufficientKnotsError(f"interval {k} has fewer than 4 usable knots")
    wx, valid, at = _windows(knots.xs, 0, n, np.array([k]))
    chosen, c, _ = select_stencils(wx, knots.fs[at], valid, method)
    idx = tuple((k - 2 + chosen[0]).tolist())
    return Stencil1D(k=k, idx=idx, method=method, coeffs=tuple(c[0]))


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


class Extension1D:
    """An everywhere-defined extension of one knot row.

    Stencils are selected for all intervals in one batched pass, here or by
    a caller that passes this row's slice of its :func:`select_rows` result
    as ``tables``.  Evaluation is an interval lookup plus a Horner step,
    vectorized over query points.  With fewer than four knots the quadratic
    or linear interpolant through all knots is used instead and a degraded
    flag is set.
    """

    def __init__(self, knots: Knots1D, method: str, tables=None):
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        self.knots = knots
        self.method = method
        xs, fs = knots.xs, knots.fs
        n = xs.size
        self.degraded = n < 4
        if self.degraded:
            self._coeffs = _newton_coeffs(list(xs), list(fs))
            self._cxs = list(xs)
            return
        self._c, self._x = select_rows([knots], method)[1:] if tables is None else tables
        self._lo, self._hi = (
            (_newton_coeffs(list(xs[end]), list(fs[end])), list(xs[end][:3]))
            for end in (slice(0, 4), slice(n - 4, n))
        )

    def __call__(self, xi: float) -> float:
        return float(self.eval_many(np.array([xi], dtype=np.float64))[0])

    def eval_many(self, x) -> np.ndarray:
        """Evaluate the extension at an array of points."""
        x = np.asarray(x, dtype=np.float64)
        xs, fs = self.knots.xs, self.knots.fs
        n = xs.size
        pos = np.searchsorted(xs, x)
        at_knot = (pos < n) & (xs[np.minimum(pos, n - 1)] == x)
        if self.degraded:
            out = np.array(_newton_eval(self._coeffs, self._cxs, x), dtype=np.float64)
            out[at_knot] = fs[pos[at_knot]]
            return out
        k = np.clip(pos - 1, 0, n - 2)
        out = self._horner(self._c[k], self._x[k], x)
        below = x < xs[0]
        above = x > xs[-1]
        if below.any():
            c, cx = self._lo
            out[below] = _newton_eval(c, cx, x[below])
        if above.any():
            c, cx = self._hi
            out[above] = _newton_eval(c, cx, x[above])
        if at_knot.any():
            j = pos[at_knot]
            if self.method == ENO:
                out[at_knot] = fs[j]
            else:
                # One-sided polynomial limits, averaged at interior knots.
                left = np.clip(j - 1, 0, n - 2)
                right = np.clip(j, 0, n - 2)
                xa = x[at_knot]
                vl = self._horner(self._c[left], self._x[left], xa)
                vr = self._horner(self._c[right], self._x[right], xa)
                out[at_knot] = 0.5 * (vl + vr)
        return out

    @staticmethod
    def _horner(c, cx, x):
        return c[..., 0] + (x - cx[..., 0]) * (
            c[..., 1]
            + (x - cx[..., 1]) * (c[..., 2] + (x - cx[..., 2]) * c[..., 3])
        )


def extend_1d(knots: Knots1D, xi: float, method: str = ENO) -> float:
    """Evaluate the chosen 1D extension of ``knots`` at a single point.

    For repeated evaluation over the same knots build an :class:`Extension1D`
    once and call it; this convenience wrapper reselects stencils each call.
    """
    return Extension1D(knots, method)(xi)
