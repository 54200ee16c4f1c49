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

UE state is one set of arrays (``UeArrays``, drawn by ``place_ues``).
Motion (``advance``), measurement (``CellGrid.rsrp``) and the trigger
rule (``trigger_targets``) take every UE at once; a single UE is a batch
of one.
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

    def distances(self, pos: np.ndarray) -> np.ndarray:
        """Distances from positions (..., 2) to every BS, shape (..., cells).

        The x and y offsets are separate contiguous (..., cells) planes,
        each folded onto the torus before one ``hypot`` reads both.
        """
        pos = np.asarray(pos, dtype=float)
        bs, ext = self._bs_positions, self._extent_arr
        planes = []
        for k in range(2):
            d = pos[..., k, None] - bs[:, k]
            np.abs(d, out=d)
            if self.wrap:
                np.minimum(d, ext[k] - d, out=d)
            planes.append(d)
        return np.hypot(*planes)

    def rsrp(self, pos: np.ndarray) -> np.ndarray:
        """Uplink received power per cell (dBm) for the given positions."""
        d = np.maximum(self.distances(pos), MIN_DISTANCE_M)
        return self.ptx_dbm - (self.pl0_db + 10.0 * self.pl_exponent * np.log10(d))

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
    if np.any(np.asarray(dt_ms) <= 0):
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
