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
grid and hole mask.  Its tables are face-major, ``(6, cells)``: a
self-padded neighbor gather (a missing neighbor points at the cell itself),
the opposite-face inflow indices and the plane-fit weights.  Its
``gradient`` is the one plane fit, called by :func:`step`,
:func:`courant_dt` and :func:`fit_plane`.  It also owns a workspace that
every step reuses, so a warm step allocates nothing face-sized; the depths a
step returns are always a fresh array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import NonFiniteStateError, OutOfRangeError
from .grid_io import DEFAULT_NODATA, HexRaster
from .hexgrid import FACE_NORMALS, OPPOSITE_FACE, SQRT3, HexGrid, neighbor_table

_OPP = np.array(OPPOSITE_FACE) - 1  # opposite face, 0-based


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
    """Neighbor indexing, plane-fit weights and step workspace of a grid + hole mask.

    Every table is face-major, ``(6, cells)``, so that each face reduction
    adds six contiguous rows.  ``gather`` is self-padded: a missing neighbor
    (off the grid, a hole, or any face of a hole) points at the cell itself,
    so its potential relative to the cell is exactly zero and it is never a
    lower neighbor.  ``inflow`` indexes the flattened ``(6, cells + 1)``
    face-volume table at the face of each neighbor that looks back at the
    cell; a missing neighbor points at the table's last column, which stays
    zero.  ``shed`` indexes the same table at the open-boundary faces in
    cell-major order; that order fixes the rounding of the outflow ledger's
    sum, on which the pinned outputs depend.

    The workspace holds the relative potentials ``rel`` that
    :meth:`gradient` leaves, the face-volume table, a gather buffer and a
    few one-row buffers.  Steps and gradients overwrite it, so a topology
    serves one caller at a time, and no state ever holds a view of it.
    """

    def __init__(self, grid: HexGrid, valid: np.ndarray):
        c = grid.nrows * grid.ncols
        self.valid = valid.ravel()
        cells = np.arange(c)
        table = neighbor_table(grid, cells % grid.ncols, cells // grid.ncols)
        exists = table >= 0
        # table == -1 reads the last cell's flag; ``exists`` masks it out.
        self.has = exists & self.valid[table] & self.valid
        self.is_edge = ~exists & self.valid
        self.gather = np.where(self.has, table, cells)
        self.inflow = _OPP[:, None] * (c + 1) + np.where(self.has, table, c)
        edge_cell, edge_face = np.nonzero(self.is_edge.T)
        self.shed = edge_face * (c + 1) + edge_cell
        self._build_weights(grid)
        self.rel = np.empty((6, c))
        self._gathered = np.empty((6, c))
        self._volume = np.zeros((6, c + 1))
        self._rate = np.empty(c)
        self._term = np.empty(c)
        self._send = np.empty(c, dtype=bool)
        self._take = np.empty(c, dtype=bool)

    @property
    def neigh(self) -> np.ndarray:
        """Cell-major ``(cells, 6)`` neighbor indices, -1 where missing.

        A transposed view of a table built on each access; nothing keeps it.
        """
        return np.where(self.has, self.gather, -1).T

    def _build_weights(self, grid: HexGrid):
        """Per-cell gradient weights over the neighbor potentials, faces 1..6.

        Interior cells with six neighbors use the symmetric closed form; the
        rest get least-squares weights from the pseudo-inverse of the local
        plane design matrix.  That matrix depends only on which faces have a
        neighbor, so it is inverted once per face pattern.  Cells with fewer
        than two neighbors stay flat.
        """
        r = grid.r
        wa = np.zeros(self.has.shape)
        wb = np.zeros(self.has.shape)
        full = self.valid & self.has.all(axis=0)
        wa[:, full] = (np.array([2.0, 1.0, -1.0, -2.0, -1.0, 1.0]) / (6.0 * SQRT3 * r))[:, None]
        wb[:, full] = (np.array([0.0, 1.0, 1.0, 0.0, -1.0, -1.0]) / (6.0 * r))[:, None]
        rest = np.nonzero(self.valid & ~full)[0]
        pattern = (1 << np.arange(6)) @ self.has[:, rest]
        big_r = r * SQRT3
        for code in np.unique(pattern):
            faces = np.nonzero(code >> np.arange(6) & 1)[0]
            if faces.size < 2:
                continue
            design = np.ones((faces.size + 1, 3))
            design[0, 1:] = 0.0
            design[1:, 1] = big_r * FACE_NORMALS[faces, 0]
            design[1:, 2] = big_r * FACE_NORMALS[faces, 1]
            pinv = np.linalg.pinv(design)
            cells = rest[pattern == code]
            wa[faces[:, None], cells] = pinv[1, 1:, None]
            wb[faces[:, None], cells] = pinv[2, 1:, None]
        self.wa = wa
        self.wb = wb

    def gradient(self, psi: np.ndarray) -> tuple:
        """Gradient (a, b) of every cell's fitted plane of the raveled potential.

        Works with potentials relative to each cell: the gradient of the
        fitted plane is shift-invariant, and a constant field then gives
        exactly zero.  Invalid cells and missing neighbors contribute nothing.
        Leaves the relative potentials in ``rel`` until the next call.
        """
        psi = np.where(self.valid, psi, 0.0)
        # Every index is in range; "clip" writes straight into ``out``, where
        # the default "raise" would fill a temporary first.
        np.take(psi, self.gather, out=self.rel, mode="clip")
        self.rel -= psi
        rel, term = self.rel, self._term
        out = []
        for w in (self.wa, self.wb):
            # The order in which numpy's einsum("ij,ij->i") adds contiguous
            # six-face rows: faces (0, 2, 4) and (1, 3, 5), then the two
            # partial sums onto zero, which makes a sum of -0.0 terms +0.0.
            even, odd = w[0] * rel[0], w[1] * rel[1]
            for f in (2, 4):
                even += np.multiply(w[f], rel[f], out=term)
                odd += np.multiply(w[f + 1], rel[f + 1], out=term)
            even += odd
            even += 0.0
            out.append(even)
        return tuple(out)


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
    """Advance the water depths by one time step (two-phase update)."""
    topo = state.topology()
    grid = state.grid
    valid = topo.valid
    h = state.h.ravel()
    psi = state.z.ravel() + h
    if not np.all(np.isfinite(psi[valid])):
        raise NonFiniteStateError(
            f"non-finite water potential entering step {state.step_count + 1}"
        )
    a, b = topo.gradient(psi)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g2 = a * a + b * b
        s = np.sqrt(g2 / (1.0 + g2))
        norm = np.sqrt(g2)
        moving = valid & (norm > 0.0) & (h > 0.0)
        inv = np.where(norm > 0.0, 1.0 / np.where(norm > 0.0, norm, 1.0), 0.0)
        tau_x = -a * inv
        tau_y = -b * inv
        v = np.where(moving, h ** (2.0 / 3.0) * np.sqrt(s) / state.manning_n, 0.0)
        # Face by face: the outward rate v * (tau . n) and the volume
        # dt * side * h * rate through the faces that take water.
        rate, term, send, take = topo._rate, topo._term, topo._send, topo._take
        depth_side = state.dt * grid.side * h
        volume = topo._volume[:, :-1]
        for f, (nx, ny) in enumerate(FACE_NORMALS):
            np.multiply(tau_x, nx, out=rate)
            rate += np.multiply(tau_y, ny, out=term)
            rate *= v
            np.greater(rate, 0.0, out=send)
            # A receptor is a lower neighbor; a missing neighbor's relative
            # potential is 0, so it never is one.
            np.less(topo.rel[f], 0.0, out=take)
            take &= send
            if state.boundary == "open":
                send &= topo.is_edge[f]
                send &= moving
                take |= send
            volume[f] = 0.0
            np.copyto(volume[f], rate, where=take)
            volume[f] *= depth_side
        out = volume.sum(axis=0)
        avail = h * grid.cell_area
        over = out > avail
        capped = int(np.count_nonzero(over))
        if capped:  # without capping every scale would be 1.0, a no-op
            scale = np.where(
                over, np.where(out > 0.0, avail / np.where(out > 0.0, out, 1.0), 1.0), 1.0
            )
            volume *= scale
            out = volume.sum(axis=0)
    inflow = np.take(topo._volume, topo.inflow, out=topo._gathered, mode="clip").sum(axis=0)
    shed = 0.0
    if state.boundary == "open":
        shed = float(topo._volume.take(topo.shed).sum())
    h_new = np.maximum(h + (inflow - out) / grid.cell_area, 0.0)
    if not np.all(np.isfinite(h_new[valid])):
        raise NonFiniteStateError(
            f"non-finite water depth after step {state.step_count + 1}"
        )
    new = replace(
        state,
        h=h_new.reshape(state.h.shape),
        outflow_volume=state.outflow_volume + shed,
        capping_events=state.capping_events + capped,
        step_count=state.step_count + 1,
    )
    new._topo = topo
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
    h_start = state.h.copy()
    volume_start = state.total_volume()
    current = state
    for _ in range(steps):
        current = step(current)
    valid = current.valid_mask()
    nodata = state.nodata if state.nodata is not None else DEFAULT_NODATA
    depth_vals = np.where(valid, current.h, nodata)
    mask_vals = np.where(
        valid, (current.h > h_start * (1.0 + mask_margin)).astype(np.float64), nodata
    )
    grid = state.grid
    depth = HexRaster(values=depth_vals, x0=grid.x0, y0=grid.y0, r=grid.r, nodata=nodata)
    mask = HexRaster(values=mask_vals, x0=grid.x0, y0=grid.y0, r=grid.r, nodata=nodata)
    volume_end = current.total_volume()
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
    courant: float = 0.2,
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
    return courant_dt(probe, courant)


def courant_dt(state: FlowState, courant: float = 0.2) -> float:
    """Time step keeping dt * side * v_max / cell_area at or below ``courant``.

    Bounds the Manning velocity by the steepest slope and the deepest water
    of ``state``.  Builds the state's topology, which its steps then reuse.
    """
    topo = state.topology()
    h = state.h.ravel()
    a, b = topo.gradient(state.z.ravel() + h)
    g2 = a * a + b * b
    s_max = float(np.sqrt(g2 / (1.0 + g2)).max()) if g2.size else 0.0
    h_max = float(h[topo.valid].max(initial=0.0))
    v_max = h_max ** (2.0 / 3.0) * math.sqrt(s_max) / state.manning_n
    if v_max <= 0.0:
        return 1.0
    return courant * state.grid.cell_area / (state.grid.side * v_max)
