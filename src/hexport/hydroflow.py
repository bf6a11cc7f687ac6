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

Everything runs over whole arrays at once.  ``_Topology`` is built once per
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

The layout's two halves, the even rows and the odd rows with their pad
slots, step as two parallel tasks.  A step runs in three phases, each on
both halves before the next starts: the plane fit; then the slope,
velocity, pair volumes and capping; then each cell's inflow from its
neighbors' pair volumes and its new depth.  A half's phase writes only its
own slots, and reads the other half's only for what an earlier phase
finished there: neighbor potentials in the fit, neighbor volumes in the
inflow.  Every value is computed by the same numpy calls whichever half
runs first, so the result does not depend on how the halves are run.  On
large grids with two usable cores, the odd half runs on a thread of its
own while the caller runs the even half, and numpy, which releases the GIL
in its loops, runs them at once; otherwise the caller runs both in turn.  The
one float sum across halves, the open-boundary outflow ledger's, is taken
after the phases in its fixed order, as are the capping count and the
copy-out of the depths.
"""

from __future__ import annotations

import contextvars
import copy
import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonFiniteStateError
from .grid_io import DEFAULT_NODATA, HexRaster, _two_cores
from .hexgrid import FACE_NORMALS, SQRT3, HexGrid, ParityLayout, neighbor_table

# The Courant-like bound dt * side * v_max / cell_area that courant_dt keeps.
COURANT = 0.2

# Layout slots from which the two halves run at once, on two threads.  On
# smaller grids handing a half to a second thread costs more than the
# second core saves; CHANGES.md has the measured curve.
_CONCURRENT_SLOTS = 50_000


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
    rest (``rim``, layout slots) keep their own least-squares weights;
    ``rim_cols`` cuts the rim into each half's.  ``edges[parity][f]`` lists
    the slots of one half's valid cells whose face f leaves the grid; no
    face-major edge mask is kept.  ``shed`` indexes the pair-volume
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
    - the rim cells' ``(6, rim)`` plane-fit sums: the even- and odd-face
      partial sums of both gradients, then one face's relative potentials
      and their weighted terms;
    - six float and two bool arrays of one value a slot, which a step
      reuses under several names.

    Steps and fits overwrite it, so a topology serves one caller at a time;
    no state and no result of :meth:`gradient` ever holds a view of it.
    The methods that take a ``parity`` run one phase of a step or fit on
    that half's slots of the workspace (see :func:`_halves`).
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
        edges = []
        for f, pairs in enumerate(layout.faces):
            for cells, nb in pairs:
                np.less(on_grid[nb], live[cells], out=edge[cells])
                np.logical_and(live[nb], live[cells], out=self.has[f, cells])
            edges.append(np.flatnonzero(edge))
        odd = layout.spans[1].start
        self.edges = tuple(zip(*((e[: e.searchsorted(odd)], e[e.searchsorted(odd):])
                                 for e in edges)))
        slot = np.concatenate(edges)
        face = np.repeat(np.arange(6), [e.size for e in edges])
        order = np.lexsort((face, layout.cell_index(slot)))  # cell-major, faces ascending
        slot, face = slot[order], face[order]
        self.shed = face % 3 * n + slot
        self.shed_sign = np.where(face < 3, 1.0, -1.0)
        self._build_weights(grid)
        cut = int(self.rim.searchsorted(odd))
        self.rim_cols = (slice(0, cut), slice(cut, self.rim.size))
        self.lower = np.empty((6, n), dtype=bool)
        self._psi = np.zeros(n)
        self._volume = np.zeros((3, n))
        self._rim_sums = np.empty((6, self.rim.size))
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
        _halves(self, self._fit)
        return tuple(self.layout.cells(g).ravel() for g in self._cells[0::2])

    def _put(self, a, b=None, parities=(0, 1)) -> np.ndarray:
        """``_psi`` holding ``a + b``, or ``a`` alone, of ``(nrows, ncols)``
        arrays in the cell slots of the halves ``parities``; its pad slots
        are never written."""
        rows = self.layout.rows(self._psi)
        for parity in parities:
            if b is None:
                np.copyto(rows[parity], a[parity::2])
            else:
                np.add(a[parity::2], b[parity::2], out=rows[parity])
        return self._psi

    def _fit(self, parity):
        """:meth:`gradient` of the potential in ``_psi`` on one half, into the
        workspace: the x and y gradients go to ``_cells[0]`` and ``_cells[2]``.

        Face by face: the relative potentials, +0.0 where there is no
        neighbor, set that face's row of ``lower`` and go into the even- and
        odd-face partial sums of both gradients, the rim cells' in
        ``_rim_sums``.  Each even sum then adds its odd one, then zero, which
        makes a sum of -0.0 terms +0.0: numpy's einsum("ij,ij->i") order over
        six-face rows.  Reads the potential of neighbors in either half.
        """
        span, cols = self.layout.spans[parity], self.rim_cols[parity]
        rel, term, absent = self._rate[span], self._term[span], self._send[span]
        psi, rim, rim_sums = self._psi, self.rim[cols], self._rim_sums[:, cols]
        # Interior, then rim: sums (even x, odd x, even y, odd y), weights, rel, term
        groups = ((self._cells[:, span], self.weights, rel, term),
                  (rim_sums[:4], self.rim_weights[:, :, cols], rim_sums[4], rim_sums[5]))
        # What a hole holds is never kept: every entry that reads one is
        # missing.  So its value may be anything, and inf - inf must not warn.
        with np.errstate(invalid="ignore"):
            for f, pairs in enumerate(self.layout.faces):
                cells, nb = pairs[parity]
                np.subtract(psi[nb], psi[cells], out=self._rate[cells])
                np.copyto(rel, 0.0, where=np.logical_not(self.has[f, span], out=absent))
                np.less(rel, 0.0, out=self.lower[f, span])
                np.take(self._rate, rim, out=rim_sums[4], mode="clip")
                for sums, weights, x, scratch in groups:
                    for part, w in zip(sums[f % 2::2], weights):
                        if f < 2:
                            np.multiply(w[f], x, out=part)
                        else:
                            part += np.multiply(w[f], x, out=scratch)
        # Once summed, the odd-face sums, like rel and term, are scratch.
        for sums, *_ in groups:
            sums[0::2] += sums[1::2]
            sums[0::2] += 0.0
        for g in (0, 2):  # one row at a time: a 2-D scatter is slower
            self._cells[g][rim] = rim_sums[g]

    def _slope(self, parity) -> tuple:
        """``g2 = a * a + b * b`` and the slope ``sqrt(g2 / (1 + g2))`` of one
        half's gradients, into the odd-face sums that :meth:`_fit` no longer
        needs."""
        span = self.layout.spans[parity]
        a, g2, b, s = self._cells[:, span]
        np.multiply(a, a, out=g2)
        g2 += np.multiply(b, b, out=self._term[span])
        np.divide(g2, np.add(1.0, g2, out=s), out=s)
        return g2, np.sqrt(s, out=s)

    def _finite(self, values, span=slice(None)) -> bool:
        """Whether ``values``, the layout's ``span``, is finite on every valid
        cell.

        Checks every slot and forgives the rest after: a masked ufunc costs
        several times an unmasked one.
        """
        ok = np.isfinite(values, out=self._send[span])
        ok |= np.logical_not(self.live[span], out=self._take[span])
        return bool(ok.all())

    def _flux(self, state: FlowState, parity) -> int:
        """The second phase of a step on one half: its depths, slopes,
        velocities, signed pair volumes and capping.  Returns how many of
        its donors were capped."""
        grid, span = self.grid, self.layout.spans[parity]
        # The depths go where the potentials were; both halves' fits are done.
        h = self._put(state.h, parities=(parity,))[span]
        rate, term, send, take, live = (
            x[span] for x in (self._rate, self._term, self._send, self._take, self.live))
        a, _, b, _ = self._cells[:, span]
        # Workspace buffers take a new name when they are reused: a, tau_x,
        # out; g2, norm, v (and in the next phase, inflow); b, tau_y, avail;
        # s, depth_side; inv, rate; term, sent, part.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            g2, s = self._slope(parity)
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
            # and the signed volume dt * side * h * rate.  Face f + 3's normal
            # is the negation of face f's, and so is its rate: face f sends
            # V_f where V_f > 0, face f + 3 sends -V_f where V_f < 0, each to
            # a lower neighbor or, with an open boundary, off the grid.  A
            # pair that sends nothing keeps sent * 0, a zero of either sign.
            # Zero on pads and holes, so that neighbors reading them read 0.
            depth_side = s
            depth_side.fill(0.0)
            np.copyto(depth_side, h, where=live)
            depth_side *= state.dt * grid.side
            volume = self._volume[:, span]
            edges = self.edges[parity]
            for f, (nx, ny) in enumerate(FACE_NORMALS[:3]):
                np.multiply(tau_x, nx, out=rate)
                rate += np.multiply(tau_y, ny, out=term)
                rate *= v
                pair = np.greater(rate, 0.0, out=take)
                pair &= self.lower[f, span]
                opposite = np.less(rate, 0.0, out=send)
                opposite &= self.lower[f + 3, span]
                pair |= opposite
                if state.boundary == "open":
                    for edge, sends in ((edges[f], np.greater), (edges[f + 3], np.less)):
                        self._take[edge] |= sends(self._rate[edge], 0.0)
                sent = np.multiply(rate, depth_side, out=term)
                # A float times a bool mask casts the mask through an iterator
                # buffer each call; the mask goes into rate, free by now.
                np.copyto(rate, pair)
                np.multiply(sent, rate, out=volume[f])
            out = _sent(volume, tau_x, term)
            avail = np.multiply(h, grid.cell_area, out=tau_y)
            # A hole never sends, whatever depth it holds.
            over = np.greater(out, avail, out=send)
            over &= live
            capped = int(np.count_nonzero(over))
            if capped:
                # A capped donor is valid, so out > avail >= 0: it sends
                # avail / out of each of its volumes, and its out is summed
                # again.
                donors = np.flatnonzero(over)
                scale = avail[donors] / out[donors]
                scaled = volume[:, donors] * scale
                volume[:, donors] = scaled
                out[donors] = _sent(scaled, np.empty(capped), np.empty(capped))
        return capped

    def _gain(self, parity) -> bool:
        """The last phase of a step on one half: what each cell gains from
        its neighbors in either half, and its new depth, into ``_cells[1]``.
        Returns whether the new depths are finite on every valid cell."""
        span = self.layout.spans[parity]
        # What each neighbor sends through the face that looks back at the
        # cell, in face order: faces 0..2 read the negative part of the
        # neighbor's pair, faces 3..5 the positive part.  A missing neighbor
        # reads 0: a pad's volumes, or a hole's.  Slots outside every slice
        # keep v's 0.
        inflow, part = self._cells[1], self._term
        for f, pairs in enumerate(self.layout.faces):
            back = self._volume[f % 3]
            cells, nb = pairs[parity]
            if f == 0:
                np.negative(np.minimum(back[nb], 0.0, out=inflow[cells]), out=inflow[cells])
            elif f < 3:
                inflow[cells] -= np.minimum(back[nb], 0.0, out=part[cells])
            else:
                inflow[cells] += np.maximum(back[nb], 0.0, out=part[cells])
        # Sums of zeros alone may differ in sign from a six-face table's; the
        # depth update below maps either zero to +0.0, since h >= +0.
        inflow = inflow[span]
        inflow -= self._cells[0, span]
        inflow /= self.grid.cell_area
        h_new = np.maximum(np.add(self._psi[span], inflow, out=inflow), 0.0, out=inflow)
        return self._finite(h_new, span)


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
    state.grid._check(col, row)
    a, b = state.topology().gradient((state.z + state.h).ravel())
    idx = row * state.grid.ncols + col
    return (float(a[idx]), float(b[idx]))


def step(state: FlowState) -> FlowState:
    """Advance the water depths by one time step (two-phase update).

    The layout's two halves run the step's three phases (the module
    docstring has them) through :func:`_halves`, at once on large grids
    with two cores; the depths, outflow and capping count come out the same
    bytes either way.  Every cell-sized intermediate lives in the
    topology's workspace; the one cell-sized array a step allocates is the
    depths it returns.
    """
    topo = state.topology()
    if not topo._finite(topo._put(state.z, state.h)):
        raise NonFiniteStateError(
            f"non-finite water potential entering step {state.step_count + 1}"
        )
    _, capped, finite = _halves(topo, topo._fit, functools.partial(topo._flux, state),
                                topo._gain)
    if not all(finite):
        raise NonFiniteStateError(
            f"non-finite water depth after step {state.step_count + 1}"
        )
    shed = 0.0
    if state.boundary == "open":
        edge = topo._volume.take(topo.shed)
        edge *= topo.shed_sign
        shed = float(np.maximum(edge, 0.0, out=edge).sum())
    # The terrain is the state's own, so the successor skips its checks.
    new = copy.copy(state)
    new.h = topo.layout.cells(topo._cells[1])
    new.outflow_volume = state.outflow_volume + shed
    new.capping_events = state.capping_events + sum(capped)
    new.step_count = state.step_count + 1
    return new


def _halves(topo: _Topology, *phases) -> list:
    """Run each of ``phases``, in turn, on both halves of the topology's
    layout; returns every phase's ``[even, odd]`` results.

    A phase is called with the parity of its half.  It writes only that
    half's slots, and it may read the other half's only where an earlier
    phase wrote them, so the two halves of a phase may run in either order
    or at once.  On a layout of at least ``_CONCURRENT_SLOTS`` slots, with
    two cores to run on, a thread started for the call runs the odd half
    while the caller runs the even half, in the caller's context (numpy's
    error state included), and both finish a phase before either starts
    the next.
    Otherwise the caller runs the even half, then the odd one.  An error
    raised by a phase is raised once both halves have stopped: the one the
    caller alone would have met first.
    """
    if topo.layout.size < _CONCURRENT_SLOTS or not _two_cores():
        return [[phase(0), phase(1)] for phase in phases]
    results = [[None, None] for _ in phases]
    errors = []
    barrier = threading.Barrier(2)

    def run(parity):
        for i, phase in enumerate(phases):
            try:
                results[i][parity] = phase(parity)
            except BaseException as exc:  # raised by the caller, below
                errors.append((i, parity, exc))
            if i + 1 == len(phases):
                return
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return
            except BaseException as exc:  # an interrupt: free the other half
                errors.append((-1, parity, exc))
                barrier.abort()
                return
            # Past the barrier both halves see the same errors up to phase i.
            if any(at <= i for at, _, _ in errors):
                return

    # A thread per call: a thread kept alive between calls held on to
    # megabytes of peak RSS over repeated runs (CHANGES.md has the numbers).
    worker = threading.Thread(target=contextvars.copy_context().run, args=(run, 1),
                              name="hexport-odd-half", daemon=True)
    worker.start()
    try:
        run(0)
    finally:
        worker.join()
    if errors:
        raise min(errors, key=lambda e: e[:2])[2]
    return results


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
        _halves(topo, topo._fit, topo._slope)
    s_max = float(topo._cells[3].max())  # the slopes; pad slots hold 0
    h_max = float(np.max(state.h, where=topo.valid.reshape(topo.shape), initial=0.0))
    v_max = h_max ** (2.0 / 3.0) * math.sqrt(s_max) / state.manning_n
    if not math.isfinite(v_max):  # so too when the steepest slope is not finite
        raise NonFiniteStateError(f"velocity bound is not finite (steepest slope {s_max})")
    if v_max <= 0.0:
        return 1.0
    return COURANT * state.grid.cell_area / (state.grid.side * v_max)
