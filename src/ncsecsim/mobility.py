"""Cell grid, UE motion, uplink reference-signal measurements, HO trigger.

The deployment is a regular lattice of base stations on a torus (wrap
enabled by default, so every cell sees the same geometry).  UEs move in a
straight line at constant speed with a heading fixed per run.  At every
reference-signal instant each base station measures the UE's uplink
received power through a log-distance path-loss model; only the ordering
of those powers matters for handover decisions, so any monotone model
gives the same protocol behaviour.

A handover to candidate cell c triggers when its measured power exceeds
the serving cell's by the configured offset and no sample inside the
trailing time-to-trigger window contradicts that.  With the default
160 ms periodicity and 32 ms TTT a single satisfying measurement decides.

Motion (``advance``) and the trigger rule (``trigger_targets``) work on
arrays of UEs; ``step`` and ``ho_trigger`` are their single-UE forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidParameter, ScheduleError

DEFAULT_RS_PERIOD_MS = 160
DEFAULT_UL_OFFSET_DB = 1.0
DEFAULT_UL_TTT_MS = 32

# Log-distance path loss: PL(d) = PL0 + 10 * exponent * log10(d / 1 m),
# with d clamped below at 1 m.  Received power = P_tx - PL(d).
DEFAULT_PTX_DBM = 23.0
DEFAULT_PL0_DB = 38.5
DEFAULT_PL_EXPONENT = 3.5
MIN_DISTANCE_M = 1.0


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
        for arr in (bs, ext):
            arr.flags.writeable = False
        object.__setattr__(self, "_bs_positions", bs)
        object.__setattr__(self, "_extent_arr", ext)

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

    def torus_delta(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = np.abs(a - b)
        if self.wrap:
            d = np.minimum(d, self._extent_arr - d)
        return d

    def distances(self, pos: np.ndarray) -> np.ndarray:
        """Distances from positions (..., 2) to every BS, shape (..., cells)."""
        pos = np.asarray(pos, dtype=float)
        d = self.torus_delta(pos[..., None, :], self.bs_positions)
        return np.hypot(d[..., 0], d[..., 1])

    def rsrp(self, pos: np.ndarray) -> np.ndarray:
        """Uplink received power per cell (dBm) for the given positions."""
        d = np.maximum(self.distances(pos), MIN_DISTANCE_M)
        return self.ptx_dbm - (self.pl0_db + 10.0 * self.pl_exponent * np.log10(d))

    def nearest_cell(self, pos) -> int:
        return int(np.argmin(self.distances(np.asarray(pos, dtype=float))))

    def wrap_position(self, pos: np.ndarray) -> np.ndarray:
        if not self.wrap:
            return pos
        return np.mod(pos, self._extent_arr)


@dataclass(frozen=True)
class UeState:
    ue_id: int
    pos: tuple[float, float]
    speed_mps: float
    heading_rad: float
    serving_cell: int


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
    if np.any(np.asarray(dt_ms) <= 0):
        raise InvalidParameter("dt must be positive")
    dist = speed_mps * dt_ms / 1000.0
    return grid.wrap_position(pos + dist[..., None] * dirs)


def step(ue: UeState, dt_ms: float, grid: CellGrid) -> UeState:
    """Advance one UE along its fixed heading, wrapping on the torus."""
    heading = np.array([math.cos(ue.heading_rad), math.sin(ue.heading_rad)])
    new = advance(np.array(ue.pos), heading, np.float64(ue.speed_mps), dt_ms, grid)
    return replace(ue, pos=(float(new[0]), float(new[1])))


def measure(
    ue: UeState, grid: CellGrid, t: int, rs_period_ms: int = DEFAULT_RS_PERIOD_MS
) -> Measurement:
    if rs_period_ms <= 0:
        raise InvalidParameter("RS periodicity must be positive")
    if t % rs_period_ms != 0:
        raise ScheduleError(f"t={t} ms is not on the {rs_period_ms} ms RS grid")
    return Measurement(t, ue.ue_id, grid.rsrp(np.array(ue.pos)))


def trigger_targets(
    window: np.ndarray, serving: np.ndarray, ul_offset_db: float
) -> np.ndarray:
    """Handover target per UE, or -1 where no cell qualifies.

    ``window`` holds the samples inside the time-to-trigger window, shape
    (W, *batch, cells), oldest first and newest last; ``serving`` gives
    the serving cell per batch entry.  A cell qualifies when it beats the
    serving cell by more than the offset in every sample.  The strongest
    qualifying cell at the newest sample wins; equal powers break toward
    the lowest cell id.
    """
    serving = np.broadcast_to(np.asarray(serving), window.shape[1:-1])[..., None]
    serving_power = np.take_along_axis(window, serving[None], axis=-1)
    mask = np.all(window > serving_power + ul_offset_db, axis=0)
    np.put_along_axis(mask, serving, False, axis=-1)
    best = np.argmax(np.where(mask, window[-1], -np.inf), axis=-1)
    return np.where(mask.any(axis=-1), best, -1)


def ho_trigger(
    history: Sequence[Measurement],
    serving: int,
    ul_offset_db: float = DEFAULT_UL_OFFSET_DB,
    ul_ttt_ms: int = DEFAULT_UL_TTT_MS,
) -> int | None:
    """Target cell id if the trigger condition held through the TTT window.

    ``history`` is time-ordered, newest last.  The condition for cell c
    must hold at the newest measurement and at every earlier measurement
    inside [t_newest - TTT, t_newest]; ``trigger_targets`` decides.
    """
    if not history:
        return None
    window_start = history[-1].t - ul_ttt_ms
    first = len(history) - 1
    while first > 0 and history[first - 1].t >= window_start:
        first -= 1
    window = np.stack([meas.rsrp_dbm for meas in history[first:]])
    target = int(trigger_targets(window, serving, ul_offset_db))
    return None if target < 0 else target


def place_ues(
    grid: CellGrid,
    count: int,
    speed_mps: float,
    rng: np.random.Generator,
) -> list[UeState]:
    """Uniform positions, uniform headings in [0, 2*pi), serving = nearest."""
    ext = grid.extent
    ues = []
    for ue_id in range(count):
        pos = (float(rng.uniform(0, ext[0])), float(rng.uniform(0, ext[1])))
        heading = float(rng.uniform(0.0, 2.0 * math.pi))
        ues.append(
            UeState(
                ue_id=ue_id,
                pos=pos,
                speed_mps=speed_mps,
                heading_rad=heading,
                serving_cell=grid.nearest_cell(pos),
            )
        )
    return ues
