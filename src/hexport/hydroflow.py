"""Hexagonal cellular-automaton water routing.

Each cell carries a terrain elevation z and a water depth h; their sum is
the water potential.  Per step, every cell fits a plane to the potential of
itself and its neighbors, takes the downhill unit direction and slope from
that plane, computes a Manning velocity, and sheds water through the faces
that both point downhill and face a lower-potential neighbor.  The volume
sent through a face during one step is ``dt * side * h * (n . w)``; the
receptor gains exactly what the donor loses, so closed-boundary runs
conserve total volume to rounding.

All transfers are computed from the frozen state before any are applied
(two-phase update).  A donor whose face transfers would overdraw its depth
has them scaled back so the cell empties exactly; such capping events are
counted and reported so time steps can be chosen to avoid them.

Boundary cells fit their plane by least squares over whatever neighbors
exist; cells with fewer than two neighbors are inert.  NODATA terrain cells
are holes: excluded from every neighborhood and treated as walls.  With an
open boundary, faces leaving the grid shed water that is accumulated in an
outflow ledger; with a closed boundary they are walls too.

Everything runs over all cells at once.  ``_Topology`` is built once per
grid and hole mask.  It keeps every cell-sized array in one flat
parity-split layout (:class:`~hexport.hexgrid.ParityLayout`: even rows,
then odd rows, with pad slots between), in which each neighbor of a row
parity is a constant offset away, so every face operation runs over one
contiguous 1-D slice and no index table is kept: only the face-major
``(6, slots)`` bool mask of which neighbors exist, one plane-fit weight
per face for interior cells and least-squares weights for the rest.  Its
plane fit, called by :func:`step`, :func:`courant_dt` and (through
``gradient``) :func:`fit_plane`, runs face by face and leaves the
one-byte mask ``lower`` of neighbors whose potential is below the cell's,
which decides the receptors.  Faces f and f + 3 have opposite normals,
so at most one of them sends: a step keeps one signed volume per face
pair, positive for what face f sends, negative for what face f + 3 sends.
Open-boundary faces are reached through lists of the valid cells whose
face leaves the grid, one list per face, with no face-major edge mask.
The topology also owns a workspace that holds every cell-sized
intermediate of a step, so a warm step allocates only the depths it
returns, copied out of the layout into row-major order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonFiniteStateError, OutOfRangeError
from .grid_io import DEFAULT_NODATA, HexRaster
from .hexgrid import FACE_NORMALS, SQRT3, HexGrid, ParityLayout, neighbor_table

# The Courant-like bound dt * side * v_max / cell_area that courant_dt keeps.
COURANT = 0.2


@dataclass
class FlowState:
    """Terrain, water depth, and routing parameters on a hexagonal grid."""

    grid: HexGrid
    z: np.ndarray
    h: np.ndarray
    manning_n: float
    dt: float
    boundary: str = "closed"
    nodata: Optional[float] = None
    outflow_volume: float = 0.0
    capping_events: int = 0
    step_count: int = 0
    _topo: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        shape = (self.grid.nrows, self.grid.ncols)
        self.z = np.asarray(self.z, dtype=np.float64)
        self.h = np.asarray(self.h, dtype=np.float64)
        if self.z.shape != shape or self.h.shape != shape:
            raise ValueError(f"z and h must have shape {shape}")
        if self.boundary not in ("open", "closed"):
            raise ValueError("boundary must be 'open' or 'closed'")
        if not self.dt > 0 or not self.manning_n > 0:
            raise ValueError("dt and manning_n must be positive")
        valid = self.valid_mask()
        if not np.all(np.isfinite(self.z[valid])):
            raise ValueError("terrain must be finite on non-NODATA cells")
        hv = self.h[valid]
        if not np.all(np.isfinite(hv)) or (hv < 0).any():
            raise ValueError("water depth must be finite and nonnegative")
        # total_volume's sum: finite depths may still add up past the float range.
        with np.errstate(over="ignore"):
            if not math.isfinite(hv.sum() * self.grid.cell_area):
                raise ValueError("total water volume is not finite")

    def valid_mask(self) -> np.ndarray:
        """Cells that take part in the simulation."""
        valid = np.isfinite(self.z)
        if self.nodata is not None:
            valid &= self.z != self.nodata
        return valid

    def total_volume(self) -> float:
        """Water volume over valid cells."""
        return float(self.h[self.valid_mask()].sum() * self.grid.cell_area)

    def topology(self) -> "_Topology":
        if self._topo is None:
            self._topo = _Topology(self.grid, self.valid_mask())
        return self._topo


class _Topology:
    """Neighbor masks, plane-fit weights and step workspace of a grid + hole mask.

    Every cell-sized array lives in the flat parity-split ``layout``
    (:class:`~hexport.hexgrid.ParityLayout`): its faces' slice pairs reach
    each neighbor as one contiguous 1-D slice, so no index table is kept.
    ``valid`` is the raveled row-major hole mask the topology was built
    from, and ``live`` the same mask in the layout, False on pads.
    ``has`` is the face-major ``(6, slots)`` mask of neighbors that exist
    and are valid, for a valid cell.  A (face, cell) entry without a
    neighbor gets the relative potential +0.0, which is what the cell minus
    itself would give, so it is never a lower neighbor.  Interior cells,
    those with all six neighbors, share one plane-fit weight per face; the
    rest (``rim``, layout slots) keep their own least-squares weights.
    ``edges[f]`` lists the slots of the valid cells whose face f leaves the
    grid; no face-major edge mask is kept.  ``shed`` indexes the pair-volume
    table at the open-boundary faces in row-major cell order, faces
    ascending, and ``shed_sign`` is +1 for faces 0..2 and -1 for faces
    3..5, so ``max(sign * V, 0)`` is what the face sends; that order fixes
    the rounding of the outflow ledger's sum, on which the pinned outputs
    depend.

    The workspace holds every cell-sized array of a step, each over all
    slots of the layout:

    - the potential, whose pad slots stay zero and only feed entries
      without a neighbor; once a step has fitted its planes, the depths;
    - ``lower``, the face-major ``(6, slots)`` bool mask of neighbors whose
      potential is below the cell's, which the plane fit leaves;
    - the ``(3, slots)`` pair-volume table, zero on pads and holes:
      ``V_f > 0`` is what a cell sends through face f, ``V_f < 0`` what it
      sends through face f + 3;
    - the rim cells' ``(6, rim)`` relative potentials;
    - six float and two bool arrays of one value a slot, which a step
      reuses under several names.

    Steps and fits overwrite it, so a topology serves one caller at a time;
    no state and no result of :meth:`gradient` ever holds a view of it.
    """

    def __init__(self, grid: HexGrid, valid: np.ndarray):
        self.grid = grid
        self.shape = (grid.nrows, grid.ncols)
        self.valid = valid.ravel()
        layout = self.layout = ParityLayout(*self.shape)
        n = layout.size
        live = self.live = np.zeros(n, dtype=bool)
        for parity, rows in enumerate(layout.rows(live)):
            rows[...] = valid[parity::2]
        on_grid = np.zeros(n, dtype=bool)
        for rows in layout.rows(on_grid):
            rows.fill(True)
        self.has = np.zeros((6, n), dtype=bool)
        edge = np.zeros(n, dtype=bool)
        self.edges = []
        for f, pairs in enumerate(layout.faces):
            for cells, nb in pairs:
                np.less(on_grid[nb], live[cells], out=edge[cells])
                np.logical_and(live[nb], live[cells], out=self.has[f, cells])
            self.edges.append(np.flatnonzero(edge))
        slot = np.concatenate(self.edges)
        face = np.repeat(np.arange(6), [e.size for e in self.edges])
        order = np.lexsort((face, layout.cell_index(slot)))  # cell-major, faces ascending
        slot, face = slot[order], face[order]
        self.shed = face % 3 * n + slot
        self.shed_sign = np.where(face < 3, 1.0, -1.0)
        self._build_weights(grid)
        self.lower = np.empty((6, n), dtype=bool)
        self._psi = np.zeros(n)
        self._volume = np.zeros((3, n))
        self._rim_rel = np.empty((6, self.rim.size))
        # Even- and odd-face sums of the x and y gradients, then whatever a
        # step needs: _rate and _term hold one face's values at a time.
        self._cells = np.empty((4, n))
        self._rate = np.empty(n)
        self._term = np.empty(n)
        self._send = np.empty(n, dtype=bool)
        self._take = np.empty(n, dtype=bool)

    @property
    def neigh(self) -> np.ndarray:
        """Cell-major ``(cells, 6)`` neighbor indices, -1 where missing.

        Built from :func:`neighbor_table` on each access; nothing keeps it.
        """
        cells = np.arange(self.valid.size)
        table = neighbor_table(self.grid, cells % self.grid.ncols, cells // self.grid.ncols)
        return np.where(self.layout.cells(self.has).reshape(6, -1), table, -1).T

    def _build_weights(self, grid: HexGrid):
        """Gradient weights over the neighbor potentials, faces 1..6.

        Interior cells share the symmetric closed form; the rest get
        least-squares weights from the pseudo-inverse of the local plane
        design matrix.  That matrix depends only on which faces have a
        neighbor, so it is inverted once per face pattern.  Cells with fewer
        than two neighbors stay flat.
        """
        r = grid.r
        self.weights = (np.array([2.0, 1.0, -1.0, -2.0, -1.0, 1.0]) / (6.0 * SQRT3 * r),
                        np.array([0.0, 1.0, 1.0, 0.0, -1.0, -1.0]) / (6.0 * r))
        self.rim = np.flatnonzero(self.live & ~self.has.all(axis=0))
        pattern = (1 << np.arange(6)) @ self.has[:, self.rim]
        by_pattern = np.zeros((2, 6, 64))
        big_r = r * SQRT3
        for code in np.unique(pattern):
            faces = np.nonzero(code >> np.arange(6) & 1)[0]
            if faces.size < 2:
                continue
            design = np.ones((faces.size + 1, 3))
            design[0, 1:] = 0.0
            design[1:, 1] = big_r * FACE_NORMALS[faces, 0]
            design[1:, 2] = big_r * FACE_NORMALS[faces, 1]
            by_pattern[:, faces, code] = np.linalg.pinv(design)[1:, 1:]
        self.rim_weights = by_pattern.take(pattern, axis=2)

    def gradient(self, psi: np.ndarray) -> tuple:
        """Gradient (a, b) of every cell's fitted plane of the raveled potential.

        Works with potentials relative to each cell: the gradient of the
        fitted plane is shift-invariant, and a constant field then gives
        exactly zero.  Invalid cells and missing neighbors contribute nothing.
        Returns fresh raveled arrays in row-major cell order, and leaves
        ``lower`` until the next call.
        """
        self._put(psi.reshape(self.shape))
        return tuple(self.layout.cells(g).ravel() for g in self._fit())

    def _put(self, a, b=None) -> np.ndarray:
        """``_psi`` holding ``a + b``, or ``a`` alone, of ``(nrows, ncols)``
        arrays in its cell slots; its pad slots are never written."""
        for parity, rows in enumerate(self.layout.rows(self._psi)):
            if b is None:
                np.copyto(rows, a[parity::2])
            else:
                np.add(a[parity::2], b[parity::2], out=rows)
        return self._psi

    def _fit(self) -> tuple:
        """:meth:`gradient` of the potential in ``_psi``, into the workspace.

        Face by face: the relative potentials, +0.0 where there is no
        neighbor, set that face's row of ``lower`` and go into the even- or
        odd-face partial sums of both gradients (:func:`_face_sum`'s order).
        """
        rel, term, absent = self._rate, self._term, self._send
        psi = self._psi
        sums = self._cells  # even x, odd x, even y, odd y
        # What a hole holds is never kept: every entry that reads one is
        # missing.  So its value may be anything, and inf - inf must not warn.
        with np.errstate(invalid="ignore"):
            for f, pairs in enumerate(self.layout.faces):
                for cells, nb in pairs:
                    np.subtract(psi[nb], psi[cells], out=rel[cells])
                np.copyto(rel, 0.0, where=np.logical_not(self.has[f], out=absent))
                np.less(rel, 0.0, out=self.lower[f])
                np.take(rel, self.rim, out=self._rim_rel[f], mode="clip")
                for part, w in zip(sums[f % 2::2], self.weights):
                    if f < 2:
                        np.multiply(w[f], rel, out=part)
                    else:
                        part += np.multiply(w[f], rel, out=term)
        for even, odd, rim_w in zip(sums[0::2], sums[1::2], self.rim_weights):
            even += odd
            even += 0.0
            even[self.rim] = _face_sum(rim_w, self._rim_rel)
        return sums[0], sums[2]

    def _slope(self, a, b) -> tuple:
        """``g2 = a * a + b * b`` and the slope ``sqrt(g2 / (1 + g2))``,
        into the odd-face sums that :meth:`_fit` no longer needs."""
        g2, s = self._cells[1::2]
        np.multiply(a, a, out=g2)
        g2 += np.multiply(b, b, out=self._term)
        np.divide(g2, np.add(1.0, g2, out=s), out=s)
        return g2, np.sqrt(s, out=s)

    def _finite(self, values) -> bool:
        """Whether ``values``, in the layout, is finite on every valid cell.

        Checks every slot and forgives the rest after: a masked ufunc costs
        several times an unmasked one.
        """
        ok = np.isfinite(values, out=self._send)
        ok |= np.logical_not(self.live, out=self._take)
        return bool(ok.all())


def _face_sum(w, rel):
    """The sum over faces of ``w[f] * rel[f]``.

    The order in which numpy's einsum("ij,ij->i") adds contiguous six-face
    rows: faces (0, 2, 4) and (1, 3, 5), then the two partial sums onto
    zero, which makes a sum of -0.0 terms +0.0.
    """
    even, odd = w[0] * rel[0], w[1] * rel[1]
    for f in (2, 4):
        even += w[f] * rel[f]
        odd += w[f + 1] * rel[f + 1]
    even += odd
    even += 0.0
    return even


def _sent(volume, out, part):
    """What each cell sends, from its signed pair volumes ``volume`` ``(3, ...)``.

    Faces 0..5 added in face order, as a sum over a six-face table would:
    ``((((p0 + p1) + p2) - m0) - m1) - m2`` with ``p = max(V, 0)`` and
    ``m = min(V, 0)``, since ``x - m`` is ``x + |m|`` exactly.  ``part`` is
    scratch of ``out``'s shape.
    """
    np.maximum(volume[0], 0.0, out=out)
    for f in (1, 2):
        out += np.maximum(volume[f], 0.0, out=part)
    for f in (0, 1, 2):
        out -= np.minimum(volume[f], 0.0, out=part)
    return out


def fit_plane(state: FlowState, cell) -> tuple:
    """Gradient (a, b) of the best-fit potential plane around one cell.

    One cell's entry of :meth:`_Topology.gradient`, the fit that
    :func:`step` uses; it matches a generic least-squares fit through the
    cell and its neighbors.
    """
    col, row = cell
    if not (0 <= col < state.grid.ncols and 0 <= row < state.grid.nrows):
        raise OutOfRangeError(f"cell {cell} outside grid")
    a, b = state.topology().gradient((state.z + state.h).ravel())
    idx = row * state.grid.ncols + col
    return (float(a[idx]), float(b[idx]))


def step(state: FlowState) -> FlowState:
    """Advance the water depths by one time step (two-phase update).

    Every cell-sized intermediate lives in the topology's workspace; the
    one cell-sized array a step allocates is the depths it returns.
    """
    topo = state.topology()
    grid = state.grid
    if not topo._finite(topo._put(state.z, state.h)):
        raise NonFiniteStateError(
            f"non-finite water potential entering step {state.step_count + 1}"
        )
    # Workspace buffers take a new name when they are reused: a, tau_x,
    # out; g2, norm, v, inflow; b, tau_y, avail; s, depth_side; inv, rate;
    # term, sent, part; the potential, h.
    a, b = topo._fit()
    h = topo._put(state.h)
    rate, term, send, take, live = topo._rate, topo._term, topo._send, topo._take, topo.live
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g2, s = topo._slope(a, b)
        norm = np.sqrt(g2, out=g2)
        pos = np.greater(norm, 0.0, out=send)
        inv = rate
        inv.fill(0.0)
        np.divide(1.0, norm, out=inv, where=pos)
        moving = np.greater(h, 0.0, out=take)
        moving &= pos
        moving &= live
        tau_x = np.negative(a, out=a)
        tau_x *= inv
        tau_y = np.negative(b, out=b)
        tau_y *= inv
        v = np.power(h, 2.0 / 3.0, out=norm)
        v *= np.sqrt(s, out=s)
        v /= state.manning_n
        np.copyto(v, 0.0, where=np.logical_not(moving, out=moving))
        # Face pair by face pair: the outward rate v * (tau . n) of face f
        # and the signed volume dt * side * h * rate.  Face f + 3's normal is
        # the negation of face f's, and so is its rate: face f sends V_f
        # where V_f > 0, face f + 3 sends -V_f where V_f < 0, each to a
        # lower neighbor or, with an open boundary, off the grid.  A pair
        # that sends nothing keeps sent * 0, a zero of either sign.  Zero on
        # pads and holes, so that neighbors reading them read 0.
        depth_side = s
        depth_side.fill(0.0)
        np.copyto(depth_side, h, where=live)
        depth_side *= state.dt * grid.side
        volume = topo._volume
        for f, (nx, ny) in enumerate(FACE_NORMALS[:3]):
            np.multiply(tau_x, nx, out=rate)
            rate += np.multiply(tau_y, ny, out=term)
            rate *= v
            pair = np.greater(rate, 0.0, out=take)
            pair &= topo.lower[f]
            opposite = np.less(rate, 0.0, out=send)
            opposite &= topo.lower[f + 3]
            pair |= opposite
            if state.boundary == "open":
                for edge, sends in ((topo.edges[f], np.greater), (topo.edges[f + 3], np.less)):
                    pair[edge] |= sends(rate[edge], 0.0)
            sent = np.multiply(rate, depth_side, out=term)
            np.multiply(sent, pair, out=volume[f])
        out = _sent(volume, tau_x, term)
        avail = np.multiply(h, grid.cell_area, out=tau_y)
        # A hole never sends, whatever depth it holds.
        over = np.greater(out, avail, out=send)
        over &= live
        capped = int(np.count_nonzero(over))
        if capped:
            # A capped donor is valid, so out > avail >= 0: it sends avail /
            # out of each of its volumes, and its out is summed again.
            donors = np.flatnonzero(over)
            scale = avail[donors] / out[donors]
            scaled = volume[:, donors] * scale
            volume[:, donors] = scaled
            out[donors] = _sent(scaled, np.empty(capped), np.empty(capped))
    # What each neighbor sends through the face that looks back at the cell,
    # in face order: faces 0..2 read the negative part of the neighbor's
    # pair, faces 3..5 the positive part.  A missing neighbor reads 0: a
    # pad's volumes, or a hole's.  Slots outside every slice keep v's 0.
    inflow, part = v, term
    for f, pairs in enumerate(topo.layout.faces):
        back = volume[f % 3]
        for cells, nb in pairs:
            if f == 0:
                np.negative(np.minimum(back[nb], 0.0, out=inflow[cells]), out=inflow[cells])
            elif f < 3:
                inflow[cells] -= np.minimum(back[nb], 0.0, out=part[cells])
            else:
                inflow[cells] += np.maximum(back[nb], 0.0, out=part[cells])
    shed = 0.0
    if state.boundary == "open":
        edge = volume.take(topo.shed)
        edge *= topo.shed_sign
        shed = float(np.maximum(edge, 0.0, out=edge).sum())
    # Sums of zeros alone may differ in sign from a six-face table's; the
    # depth update below maps either zero to +0.0, since h >= +0.
    inflow -= out
    inflow /= grid.cell_area
    h_new = np.maximum(np.add(h, inflow, out=inflow), 0.0, out=inflow)
    if not topo._finite(h_new):
        raise NonFiniteStateError(
            f"non-finite water depth after step {state.step_count + 1}"
        )
    # The terrain is the state's own, so the successor skips its checks.
    new = copy.copy(state)
    new.h = topo.layout.cells(h_new)
    new.outflow_volume = state.outflow_volume + shed
    new.capping_events = state.capping_events + capped
    new.step_count = state.step_count + 1
    return new


@dataclass(frozen=True)
class FlowRunResult:
    state: FlowState
    depth: HexRaster
    mask: HexRaster
    summary: dict


def run(state: FlowState, steps: int, mask_margin: float = 0.0) -> FlowRunResult:
    """Iterate the routing and extract the accumulation mask.

    The mask marks cells whose final depth exceeds the starting depth by
    more than ``mask_margin`` (relative); it highlights where water piles
    up when starting from a uniform shallow layer.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    volume_start = state.total_volume()
    current = state
    for _ in range(steps):
        current = step(current)
    volume_end = current.total_volume()  # before the rasters, so its copy is freed first
    valid = current.valid_mask()
    nodata = state.nodata if state.nodata is not None else DEFAULT_NODATA
    depth_vals = np.where(valid, current.h, nodata)
    # Steps never write into the depths they read, so state.h is still the start.
    mask_vals = np.where(valid, current.h > state.h * (1.0 + mask_margin), nodata)
    grid = state.grid
    depth = HexRaster(values=depth_vals, x0=grid.x0, y0=grid.y0, r=grid.r, nodata=nodata)
    mask = HexRaster(values=mask_vals, x0=grid.x0, y0=grid.y0, r=grid.r, nodata=nodata)
    summary = {
        "steps": steps,
        "volume_initial": volume_start,
        "volume_final": volume_end,
        "outflow_volume": current.outflow_volume,
        "capping_events": current.capping_events,
        "masked_cells": int((mask_vals == 1.0).sum()),
    }
    return FlowRunResult(state=current, depth=depth, mask=mask, summary=summary)


def suggest_dt(
    grid: HexGrid,
    z: np.ndarray,
    h0: float,
    manning_n: float,
    nodata: Optional[float] = None,
) -> float:
    """:func:`courant_dt` of a uniform starting depth ``h0`` on terrain ``z``."""
    probe = FlowState(
        grid=grid,
        z=z,
        h=np.full((grid.nrows, grid.ncols), float(h0)),
        manning_n=manning_n,
        dt=1.0,
        nodata=nodata,
    )
    return courant_dt(probe)


def courant_dt(state: FlowState) -> float:
    """Time step keeping dt * side * v_max / cell_area at or below :data:`COURANT`.

    Bounds the Manning velocity by the steepest slope and the deepest water
    of ``state``.  Builds the state's topology, which its steps then reuse.
    Raises :class:`NonFiniteStateError` when that bound is not finite.
    """
    topo = state.topology()
    topo._put(state.z, state.h)
    with np.errstate(over="ignore", invalid="ignore"):
        _, s = topo._slope(*topo._fit())
    s_max = float(s.max())  # pad slots hold 0
    h_max = float(np.max(state.h, where=topo.valid.reshape(topo.shape), initial=0.0))
    v_max = h_max ** (2.0 / 3.0) * math.sqrt(s_max) / state.manning_n
    if not math.isfinite(v_max):  # so too when the steepest slope is not finite
        raise NonFiniteStateError(f"velocity bound is not finite (steepest slope {s_max})")
    if v_max <= 0.0:
        return 1.0
    return COURANT * state.grid.cell_area / (state.grid.side * v_max)
