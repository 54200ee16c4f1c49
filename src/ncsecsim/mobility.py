"""Cell grid, UE motion, uplink reference-signal measurements, HO trigger.

The deployment is a regular lattice of base stations on a torus (wrap
enabled by default, so every cell sees the same geometry).  UEs move in a
straight line at constant speed with a heading fixed per run.  A base
station receives a UE's uplink reference signal with the power of a
log-distance path-loss model; only the ordering of those powers matters
for handover decisions, so any monotone model gives the same protocol
behaviour.

A handover to candidate cell c triggers when its measured power exceeds
the serving cell's by the configured offset and no sample inside the
trailing time-to-trigger window contradicts that.  With the default
160 ms periodicity and 32 ms TTT a single satisfying measurement decides.
Power falls with distance, so only cells within a reach of the UE set by
its serving distance and the offset can trigger: ``CellGrid.trigger_targets``
computes powers for the serving cell and the 3x3 lattice box around the
UE, and the full row (``CellGrid.rsrp``) only where the reach may leave
the box, on small grids, or where every power is needed (shadowing, the
measurement dump).

UE state is one set of arrays (``UeArrays``, drawn by ``place_ues``).
Motion (``advance``), measurement (``CellGrid.rsrp``) and the trigger
rule (``trigger_targets``, ``CellGrid.trigger_targets``) take every UE at
once; a single UE is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

# Log-distance path loss: PL(d) = PL0 + 10 * exponent * log10(d / 1 m),
# with d clamped below at 1 m.  Received power = P_tx - PL(d).
DEFAULT_PTX_DBM = 23.0
DEFAULT_PL0_DB = 38.5
DEFAULT_PL_EXPONENT = 3.5
MIN_DISTANCE_M = 1.0

# ``CellGrid.trigger_targets`` computes powers for a UE's 3x3 lattice box
# only on grids of at least this many cells; on smaller grids the box's
# gathers cost about as much as the full row or more (measured on 4x4 to
# 8x8 grids with 20 and 140 UEs).
BOX_MIN_CELLS = 36
# Reach, in ISDs, that a UE's box must cover to decide its trigger; the
# box guarantees 1.5 ISD, the rest is margin.
BOX_REACH_ISD = 1.4


@dataclass(frozen=True)
class CellGrid:
    rows: int = 4
    cols: int = 4
    isd_m: float = 100.0
    wrap: bool = True
    ptx_dbm: float = DEFAULT_PTX_DBM
    pl0_db: float = DEFAULT_PL0_DB
    pl_exponent: float = DEFAULT_PL_EXPONENT

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.isd_m <= 0:
            raise InvalidParameter("grid needs positive rows, cols, and ISD")
        xs = (np.arange(self.cols) + 0.5) * self.isd_m
        ys = (np.arange(self.rows) + 0.5) * self.isd_m
        gx, gy = np.meshgrid(xs, ys)
        bs = np.column_stack([gx.ravel(), gy.ravel()])
        ext = np.array(self.extent)
        # Each cell's 3x3 lattice neighbourhood, wrapped on the torus and
        # clipped at the edges otherwise, ids ascending (repeats allowed).
        row, col = np.divmod(np.arange(self.num_cells), self.cols)
        step = np.array([-1, 0, 1])
        box_rows, box_cols = row[:, None] + step, col[:, None] + step
        if self.wrap:
            box_rows %= self.rows
            box_cols %= self.cols
        else:
            np.clip(box_rows, 0, self.rows - 1, out=box_rows)
            np.clip(box_cols, 0, self.cols - 1, out=box_cols)
        box = np.sort((box_rows[:, :, None] * self.cols + box_cols[:, None, :]).reshape(-1, 9))
        cached = {
            "_bs_positions": bs,
            "_bs_x": bs[:, 0].copy(),
            "_bs_y": bs[:, 1].copy(),
            "_extent_arr": ext,
            # a tenth column, for the serving cell, is filled per lookup
            "_box": np.column_stack([box, box[:, 0]]),
            "_last_square": np.array([self.cols - 1.0, self.rows - 1.0]),
        }
        for name, arr in cached.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # A UE whose serving power plus the offset reaches this floor has no
        # candidate outside its box (see ``trigger_targets``).
        object.__setattr__(
            self, "_box_floor_dbm", float(self._power(np.array([BOX_REACH_ISD * self.isd_m]))[0])
        )

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    @property
    def extent(self) -> tuple[float, float]:
        return (self.cols * self.isd_m, self.rows * self.isd_m)

    @property
    def bs_positions(self) -> np.ndarray:
        """(num_cells, 2) lattice coordinates, cell ids row-major (read-only)."""
        return self._bs_positions

    def _distances(self, pos: np.ndarray, bs_x: np.ndarray, bs_y: np.ndarray) -> np.ndarray:
        """Distances from ``pos`` (..., 2) to the BS coordinates ``bs_x`` and
        ``bs_y``, which broadcast against ``pos[..., None]``.

        The x and y offsets are separate contiguous planes, each folded onto
        the torus before one ``hypot`` reads both.
        """
        ext = self._extent_arr
        planes = []
        for k, bs in enumerate((bs_x, bs_y)):
            d = pos[..., k, None] - bs
            np.abs(d, out=d)
            if self.wrap:
                np.minimum(d, ext[k] - d, out=d)
            planes.append(d)
        return np.hypot(*planes)

    def _power(self, d: np.ndarray) -> np.ndarray:
        """Received power at distances ``d``; overwrites ``d``."""
        np.maximum(d, MIN_DISTANCE_M, out=d)
        p = np.log10(d, out=d)
        p *= 10.0 * self.pl_exponent
        p += self.pl0_db
        return np.subtract(self.ptx_dbm, p, out=p)

    def distances(self, pos: np.ndarray) -> np.ndarray:
        """Distances from positions (..., 2) to every BS, shape (..., cells)."""
        return self._distances(np.asarray(pos, dtype=float), self._bs_x, self._bs_y)

    def rsrp(self, pos: np.ndarray) -> np.ndarray:
        """Uplink received power per cell (dBm) for the given positions."""
        return self._power(self.distances(pos))

    def box_rsrp(self, pos: np.ndarray, serving: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Powers for each entry's lattice box and serving cell.

        ``pos`` is (W, entries, 2), oldest sample first, and ``serving``
        (entries,).  The box is the 3x3 neighbourhood of the lattice square
        holding the newest position (the square of its nearest cell, or the
        nearest edge square off an unwrapped grid), ids ascending.  Returns
        ``cells`` (entries, 10), the box and then the serving cell, and
        their powers (W, entries, 10), computed with the operations of
        ``rsrp`` and so the same bits.
        """
        square = pos[-1] / self.isd_m
        np.minimum(square, self._last_square, out=square)
        np.maximum(square, 0.0, out=square)
        square = square.astype(np.intp)
        cells = self._box[square[:, 1] * self.cols + square[:, 0]]
        cells[:, 9] = serving
        return cells, self._power(self._distances(pos, self._bs_x[cells], self._bs_y[cells]))

    def trigger_targets(
        self, window_pos: np.ndarray, serving: np.ndarray, ul_offset_db: float
    ) -> np.ndarray:
        """``trigger_targets(self.rsrp(window_pos), serving, ul_offset_db)``,
        computing powers only for the cells that can win.

        ``window_pos`` holds the positions inside the time-to-trigger
        window, shape (W, *batch, 2), oldest first.  Received power falls
        strictly with ``max(d, 1 m)``, so a cell can beat the serving cell
        by the offset only within the reach
        r = max(d_s, 1 m) * 10**(-offset / (10 * exponent)) of the newest
        position, and a cell must qualify at the newest sample.  Every cell
        outside the newest position's box (``box_rsrp``) is at least 1.5 ISD
        away.  Where the serving power plus the offset reaches the power at
        ``BOX_REACH_ISD`` ISDs, r is inside that with margin and the box
        decides; other entries, grids under ``BOX_MIN_CELLS`` cells and
        non-positive exponents take the full row.
        """
        window_pos = np.asarray(window_pos, dtype=float)
        if self.num_cells < BOX_MIN_CELLS or not self.pl_exponent > 0:
            return trigger_targets(self.rsrp(window_pos), serving, ul_offset_db)
        batch = window_pos.shape[1:-1]
        pos = window_pos.reshape(len(window_pos), -1, 2)  # (W, entries, 2)
        serving = (np.asarray(serving) + np.zeros(batch, dtype=np.intp)).ravel()
        cells, power = self.box_rsrp(pos, serving)
        bar = power[:, :, 9:] + ul_offset_db  # (W, entries, 1): the power to beat
        mask = (power[:, :, :9] > bar).all(axis=0)
        mask &= cells[:, :9] != serving[:, None]
        best = np.where(mask, power[-1, :, :9], -np.inf).argmax(axis=1)
        targets = np.where(mask.any(axis=1), cells[np.arange(len(serving)), best], -1)
        far = np.flatnonzero(bar[-1, :, 0] < self._box_floor_dbm)
        if len(far):
            targets[far] = trigger_targets(
                self.rsrp(pos[:, far]), serving[far], ul_offset_db
            )
        return targets.reshape(batch)

    def wrap_position(self, pos: np.ndarray) -> np.ndarray:
        if not self.wrap:
            return pos
        return np.mod(pos, self._extent_arr)


@dataclass(frozen=True)
class Measurement:
    t: int
    ue_id: int
    rsrp_dbm: np.ndarray  # one entry per cell


def advance(
    pos: np.ndarray,
    dirs: np.ndarray,
    speed_mps: np.ndarray,
    dt_ms: float | np.ndarray,
    grid: CellGrid,
) -> np.ndarray:
    """Positions after ``dt_ms`` along fixed unit headings, wrapped on the torus.

    ``pos`` and ``dirs`` end in a coordinate axis of length 2; every
    argument broadcasts against the others, so one call moves all UEs one
    tick, or one UE (or all) to several future instants at once.
    """
    # one comparison for the loop's scalar tick, a reduction for lead times
    if (dt_ms <= 0).any() if isinstance(dt_ms, np.ndarray) else dt_ms <= 0:
        raise InvalidParameter("dt must be positive")
    dist = speed_mps * dt_ms / 1000.0
    return grid.wrap_position(pos + dist[..., None] * dirs)


def trigger_targets(
    window: np.ndarray, serving: np.ndarray, ul_offset_db: float
) -> np.ndarray:
    """Handover target per UE, or -1 where no cell qualifies.

    ``window`` holds the samples inside the time-to-trigger window, shape
    (W, *batch, cells), oldest first and newest last; ``serving`` gives
    the serving cell per batch entry and broadcasts against the batch.  A
    cell qualifies when it beats the serving cell by more than the offset
    in every sample.  The strongest qualifying cell at the newest sample
    wins; equal powers break toward the lowest cell id.
    """
    batch = window.shape[1:-1]
    flat = window.reshape(len(window), -1, window.shape[-1])  # (W, entries, cells)
    col = (np.asarray(serving) + np.zeros(batch, dtype=np.intp)).ravel()
    rows = np.arange(len(col))
    mask = (flat > flat[:, rows, col, None] + ul_offset_db).all(axis=0)
    mask[rows, col] = False
    best = np.where(mask, flat[-1], -np.inf).argmax(axis=-1)
    return np.where(mask.any(axis=-1), best, -1).reshape(batch)


@dataclass
class UeArrays:
    """Per-UE state of a run, one row per UE id."""

    pos: np.ndarray  # (U, 2) metres
    dirs: np.ndarray  # (U, 2) unit headings
    speed: np.ndarray  # (U,) metres per second
    serving: np.ndarray  # (U,) cell ids

    @property
    def count(self) -> int:
        return len(self.serving)


def place_ues(
    grid: CellGrid,
    count: int,
    speed_mps: float,
    rng: np.random.Generator,
) -> UeArrays:
    """Uniform positions, uniform headings in [0, 2*pi), serving = nearest.

    Each UE takes three consecutive draws: x, y, heading.
    """
    ext_x, ext_y = grid.extent
    draws = rng.uniform([0.0, 0.0, 0.0], [ext_x, ext_y, 2.0 * math.pi], size=(count, 3))
    pos = draws[:, :2].copy()
    headings = draws[:, 2]
    return UeArrays(
        pos=pos,
        dirs=np.column_stack([np.cos(headings), np.sin(headings)]),
        speed=np.full(count, float(speed_mps)),
        serving=grid.distances(pos).argmin(axis=1),
    )
