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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import NonFiniteStateError, OutOfRangeError
from .grid_io import DEFAULT_NODATA, HexRaster
from .hexgrid import (
    FACE_NORMALS,
    SQRT3,
    HexGrid,
    _OFFSETS_EVEN,
    _OFFSETS_ODD,
)

_OPP = np.array([3, 4, 5, 0, 1, 2])  # opposite face, 0-based


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
    """Neighbor indexing and plane-fit weights, fixed for a grid + hole mask."""

    def __init__(self, grid: HexGrid, valid: np.ndarray):
        m, n = grid.nrows, grid.ncols
        c = m * n
        self.valid = valid.ravel()
        cols = np.tile(np.arange(n), m)
        rows = np.repeat(np.arange(m), n)
        neigh = np.full((c, 6), -1, dtype=np.int64)
        is_edge = np.zeros((c, 6), dtype=bool)
        even = np.asarray(_OFFSETS_EVEN)
        odd = np.asarray(_OFFSETS_ODD)
        for f in range(6):
            dc = np.where(rows % 2 == 0, even[f, 0], odd[f, 0])
            dr = np.where(rows % 2 == 0, even[f, 1], odd[f, 1])
            nc, nr = cols + dc, rows + dr
            exists = (nc >= 0) & (nc < n) & (nr >= 0) & (nr < m)
            flat = np.where(exists, nr * n + nc, 0)
            usable = exists & self.valid[flat]
            neigh[:, f] = np.where(usable, flat, -1)
            is_edge[:, f] = ~exists
        neigh[~self.valid] = -1
        is_edge[~self.valid] = False
        self.neigh = neigh
        self.is_edge = is_edge
        self._build_weights(grid)

    def _build_weights(self, grid: HexGrid):
        """Per-cell gradient weights over (self, neighbor 1..6) potentials.

        Interior cells with six neighbors use the symmetric closed form; the
        rest get least-squares weights from the pseudo-inverse of the local
        plane design matrix.  Cells with fewer than two neighbors stay flat.
        """
        c = self.neigh.shape[0]
        r = grid.r
        wa = np.zeros((c, 7))
        wb = np.zeros((c, 7))
        full = self.valid & (self.neigh >= 0).all(axis=1)
        wa[full, 1:] = np.array([2.0, 1.0, -1.0, -2.0, -1.0, 1.0]) / (6.0 * SQRT3 * r)
        wb[full, 1:] = np.array([0.0, 1.0, 1.0, 0.0, -1.0, -1.0]) / (6.0 * r)
        rest = np.nonzero(self.valid & ~full)[0]
        big_r = r * SQRT3
        for idx in rest:
            faces = np.nonzero(self.neigh[idx] >= 0)[0]
            if faces.size < 2:
                continue
            design = np.ones((faces.size + 1, 3))
            design[0, 1:] = 0.0
            design[1:, 1] = big_r * FACE_NORMALS[faces, 0]
            design[1:, 2] = big_r * FACE_NORMALS[faces, 1]
            pinv = np.linalg.pinv(design)
            wa[idx, 0] = pinv[1, 0]
            wb[idx, 0] = pinv[2, 0]
            wa[idx, faces + 1] = pinv[1, 1:]
            wb[idx, faces + 1] = pinv[2, 1:]
        self.wa = wa
        self.wb = wb

    def gather_neighbor(self, flat_field: np.ndarray, fill: float) -> np.ndarray:
        """(cells, 6) array of a per-cell field at each neighbor."""
        padded = np.append(flat_field, fill)
        idx = np.where(self.neigh < 0, flat_field.size, self.neigh)
        return padded[idx]


@dataclass(frozen=True)
class CellFlow:
    """Per-cell routing quantities for one step."""

    a: float
    b: float
    s: float
    tau: Optional[tuple]
    receptors: frozenset
    donors_in: frozenset


def _cell_flat(state: FlowState, cell) -> int:
    col, row = cell
    if not (0 <= col < state.grid.ncols and 0 <= row < state.grid.nrows):
        raise OutOfRangeError(f"cell {cell} outside grid")
    return row * state.grid.ncols + col


def fit_plane(state: FlowState, cell) -> tuple:
    """Gradient (a, b) of the best-fit potential plane around one cell.

    Matches a generic least-squares fit through the cell and its neighbors;
    the interior case reduces to a symmetric closed form.
    """
    topo = state.topology()
    idx = _cell_flat(state, cell)
    psi = (state.z + state.h).ravel()
    neigh = topo.neigh[idx]
    # Work with potentials relative to the cell: the gradient of the fitted
    # plane is shift-invariant, and a constant field then gives exactly zero.
    rel = np.where(neigh >= 0, psi[np.where(neigh >= 0, neigh, 0)] - psi[idx], 0.0)
    return (float(topo.wa[idx, 1:] @ rel), float(topo.wb[idx, 1:] @ rel))


def slope_descent(a: float, b: float):
    """Slope in [0, 1) and downhill unit direction; None direction when flat."""
    g2 = a * a + b * b
    s = math.sqrt(g2 / (1.0 + g2))
    if g2 == 0.0:
        return (0.0, None)
    norm = math.sqrt(g2)
    return (s, (-a / norm, -b / norm))


def classify(state: FlowState, cell, tau) -> frozenset:
    """Receptor faces: lower-potential neighbor and tau . n strictly positive."""
    if tau is None:
        return frozenset()
    topo = state.topology()
    idx = _cell_flat(state, cell)
    psi = (state.z + state.h).ravel()
    out = []
    for f in range(6):
        j = topo.neigh[idx, f]
        if j < 0:
            continue
        dot = tau[0] * FACE_NORMALS[f, 0] + tau[1] * FACE_NORMALS[f, 1]
        if psi[j] < psi[idx] and dot > 0.0:
            out.append(f + 1)
    return frozenset(out)


def velocity(h: float, s: float, manning_n: float, tau) -> np.ndarray:
    """Manning velocity vector: h^(2/3) * sqrt(s) / n along the descent."""
    if tau is None or h <= 0.0 or s <= 0.0:
        return np.zeros(2)
    v = h ** (2.0 / 3.0) * math.sqrt(s) / manning_n
    return np.array([v * tau[0], v * tau[1]])


def cell_flow(state: FlowState, cell) -> CellFlow:
    """All routing quantities of one cell, including who sheds into it."""
    a, b = fit_plane(state, cell)
    s, tau = slope_descent(a, b)
    receptors = classify(state, cell, tau)
    topo = state.topology()
    idx = _cell_flat(state, cell)
    donors = []
    for f in range(6):
        j = topo.neigh[idx, f]
        if j < 0:
            continue
        ncell = (int(j % state.grid.ncols), int(j // state.grid.ncols))
        na, nb = fit_plane(state, ncell)
        _, ntau = slope_descent(na, nb)
        if int(_OPP[f]) + 1 in classify(state, ncell, ntau):
            donors.append(f + 1)
    return CellFlow(
        a=a, b=b, s=s, tau=tau, receptors=receptors, donors_in=frozenset(donors)
    )


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
    psi_safe = np.where(valid, psi, 0.0)
    rel = np.where(
        topo.neigh >= 0, topo.gather_neighbor(psi_safe, 0.0) - psi_safe[:, None], 0.0
    )
    a = np.einsum("ij,ij->i", topo.wa[:, 1:], rel)
    b = np.einsum("ij,ij->i", topo.wb[:, 1:], rel)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g2 = a * a + b * b
        s = np.sqrt(g2 / (1.0 + g2))
        norm = np.sqrt(g2)
        moving = valid & (norm > 0.0) & (h > 0.0)
        inv = np.where(norm > 0.0, 1.0 / np.where(norm > 0.0, norm, 1.0), 0.0)
        tau_x = -a * inv
        tau_y = -b * inv
        v = np.where(moving, h ** (2.0 / 3.0) * np.sqrt(s) / state.manning_n, 0.0)
        # Outward rate through each face: v * (tau . n), where positive.
        q = v[:, None] * (
            tau_x[:, None] * FACE_NORMALS[None, :, 0]
            + tau_y[:, None] * FACE_NORMALS[None, :, 1]
        )
        psi_neigh = topo.gather_neighbor(psi_safe, np.inf)
        receptor = (topo.neigh >= 0) & (psi_neigh < psi[:, None]) & (q > 0.0)
        transfer_face = receptor
        if state.boundary == "open":
            transfer_face = receptor | (topo.is_edge & (q > 0.0) & moving[:, None])
        volume = state.dt * grid.side * h[:, None] * np.where(transfer_face, q, 0.0)
        out = volume.sum(axis=1)
        avail = h * grid.cell_area
        over = out > avail
        capped = int(np.count_nonzero(over))
        scale = np.where(
            over, np.where(out > 0.0, avail / np.where(out > 0.0, out, 1.0), 1.0), 1.0
        )
        volume *= scale[:, None]
        out = volume.sum(axis=1)
    padded = np.vstack([volume, np.zeros(6)])
    idx = np.where(topo.neigh < 0, volume.shape[0], topo.neigh)
    inflow = padded[idx, _OPP[None, :]].sum(axis=1)
    shed = 0.0
    if state.boundary == "open":
        shed = float(volume[topo.is_edge].sum())
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
    psi = np.where(topo.valid, state.z.ravel() + h, 0.0)
    rel = np.where(
        topo.neigh >= 0, topo.gather_neighbor(psi, 0.0) - psi[:, None], 0.0
    )
    a = np.einsum("ij,ij->i", topo.wa[:, 1:], rel)
    b = np.einsum("ij,ij->i", topo.wb[:, 1:], rel)
    g2 = a * a + b * b
    s_max = float(np.sqrt(g2 / (1.0 + g2)).max()) if g2.size else 0.0
    h_max = float(h[topo.valid].max(initial=0.0))
    v_max = h_max ** (2.0 / 3.0) * math.sqrt(s_max) / state.manning_n
    if v_max <= 0.0:
        return 1.0
    return courant * state.grid.cell_area / (state.grid.side * v_max)
