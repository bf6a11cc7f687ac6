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


def _eno_candidates(k: int, n: int):
    """Flanking-pair candidates for interval k, in tie-preference order.

    The centered pair comes first so that a first-strict-minimum scan
    resolves ties toward it.
    """
    out = []
    if k - 1 >= 0 and k + 2 <= n - 1:
        out.append((k - 1, k + 2))
    if k - 2 >= 0:
        out.append((k - 2, k - 1))
    if k + 3 <= n - 1:
        out.append((k + 2, k + 3))
    return out


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


def eno_select(knots: Knots1D, k: int) -> Stencil1D:
    """Pick the least-oscillating cubic stencil containing interval k.

    Ties go to the centered candidate, then to the left-shifted one.
    """
    n = len(knots)
    if not 0 <= k <= n - 2:
        raise ValueError(f"interval index {k} out of range")
    cands = _eno_candidates(k, n)
    if not cands:
        raise InsufficientKnotsError(f"interval {k} has fewer than 4 usable knots")
    xs, fs = knots.xs, knots.fs
    best = None
    best_score = None
    for p, q in cands:
        score = _eno_score_parts(
            xs[k], xs[k + 1], xs[p], xs[q], fs[k], fs[k + 1], fs[p], fs[q]
        )
        if best_score is None or score < best_score:
            best_score = score
            best = (p, q)
    idx = (k, k + 1, best[0], best[1])
    coeffs = tuple(_newton_coeffs([xs[i] for i in idx], [fs[i] for i in idx]))
    return Stencil1D(k=k, idx=idx, method=ENO, coeffs=coeffs)


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


def _stencil_energy(knots: Knots1D, idx, k: int):
    """OF energy over interval k of the cubic through the knots ``idx``."""
    xs = [knots.xs[i] for i in idx]
    c = _newton_coeffs(xs, [knots.fs[i] for i in idx])
    return _of_energy(c, *xs[:3], knots.xs[k], knots.xs[k + 1])


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
    return float(np.sqrt(max(_stencil_energy(knots, idx, k), 0.0)))


def of_select(knots: Knots1D, k: int) -> Stencil1D:
    """Pick the flattest cubic stencil in the neighborhood of interval k.

    Enumerates all 4-knot subsets; unlike ENO the winner need not contain
    the interval endpoints, which is what lets it skip outliers.  Ties go
    to the lexicographically smallest index tuple.
    """
    n = len(knots)
    if not 0 <= k <= n - 2:
        raise ValueError(f"interval index {k} out of range")
    span = range(max(0, k - 2), min(n - 1, k + 3) + 1)
    if len(span) < 4:
        raise InsufficientKnotsError(f"interval {k} has fewer than 4 usable knots")
    xs, fs = knots.xs, knots.fs
    best = None
    best_energy = None
    for idx in itertools.combinations(span, 4):
        energy = _stencil_energy(knots, idx, k)
        if best_energy is None or energy < best_energy:
            best_energy = energy
            best = idx
    coeffs = tuple(_newton_coeffs([xs[i] for i in best], [fs[i] for i in best]))
    return Stencil1D(k=k, idx=best, method=OF, coeffs=coeffs)


def _extrap_idx(n: int, low: bool):
    """Fixed stencil used beyond the knot range: the four outermost knots."""
    return (0, 1, 2, 3) if low else (n - 4, n - 3, n - 2, n - 1)


class Extension1D:
    """An everywhere-defined extension of one knot row.

    Stencil selection runs once per interval at construction; evaluation is
    then an interval lookup plus a Horner step, vectorized over query
    points.  With fewer than four knots the quadratic or linear interpolant
    through all knots is used instead and a degraded flag is set.
    """

    def __init__(self, knots: Knots1D, method: str):
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        self.knots = knots
        self.method = method
        xs, fs = knots.xs, knots.fs
        n = xs.size
        self.degraded = n < 4
        self.stencils = []
        if self.degraded:
            self._coeffs = _newton_coeffs(list(xs), list(fs))
            self._cxs = list(xs)
            return
        select = eno_select if method == ENO else of_select
        c_rows = np.empty((n - 1, 4))
        x_rows = np.empty((n - 1, 3))
        for k in range(n - 1):
            st = select(knots, k)
            self.stencils.append(st)
            c_rows[k] = st.coeffs
            x_rows[k] = [xs[i] for i in st.idx[:3]]
        self._c = c_rows
        self._x = x_rows
        lo = _extrap_idx(n, True)
        hi = _extrap_idx(n, False)
        self._lo = (
            _newton_coeffs([xs[i] for i in lo], [fs[i] for i in lo]),
            [xs[i] for i in lo[:3]],
        )
        self._hi = (
            _newton_coeffs([xs[i] for i in hi], [fs[i] for i in hi]),
            [xs[i] for i in hi[:3]],
        )

    def __call__(self, xi: float) -> float:
        return float(self.eval_many(np.array([xi], dtype=np.float64))[0])

    def eval_many(self, x) -> np.ndarray:
        """Evaluate the extension at an array of points."""
        x = np.asarray(x, dtype=np.float64)
        xs, fs = self.knots.xs, self.knots.fs
        n = xs.size
        if self.degraded:
            out = np.asarray(
                _newton_eval(self._coeffs, self._cxs, x), dtype=np.float64
            ).reshape(x.shape)
            out = out.copy()
            pos = np.searchsorted(xs, x)
            at_knot = (pos < n) & (xs[np.minimum(pos, n - 1)] == x)
            out[at_knot] = fs[pos[at_knot]]
            return out
        pos = np.searchsorted(xs, x)
        at_knot = (pos < n) & (xs[np.minimum(pos, n - 1)] == x)
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
