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
The event loop asks only for the first fire of each sequence of entries
(a UE's ticks, or a forecast's lead ticks), and one call returns it
(``first_fires``, ``CellGrid.first_fires``).  Power falls with distance,
so only cells within a reach of the UE set by its serving distance and
the offset can trigger: ``CellGrid.first_fires`` computes powers for the
serving cell and the 3x3 lattice box around the UE, and the full row
(``CellGrid.rsrp``) only where the reach may leave the box, at a
non-positive exponent, or where shadowing needs every power.
At a positive offset it first drops the entries whose nearest cell, the
strongest, does not beat the serving cell by the offset
(``CellGrid.may_fire``): those cannot fire.  The box then sees only each
sequence's first surviving entry, and the next one where that did not
fire.

UE state is one set of arrays (``UeArrays``, drawn by ``place_ues``).
Motion (``advance``), measurement (``CellGrid.rsrp``) and the trigger
rule (``trigger_targets``, ``first_fires`` and their ``CellGrid``
methods) take every UE at once; a single UE is a batch of one.  On a
torus the public ``CellGrid`` methods wrap positions past the extent
first.
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

# Reach, in ISDs, that a UE's box must cover to decide its trigger; the
# box guarantees 1.5 ISD, the rest is margin.
BOX_REACH_ISD = 1.4
# Slack, in dB, of the box prefilter (``CellGrid.may_fire``): far above the
# rounding of two powers, far below any offset that matters.
PREFILTER_SLACK_DB = 1e-6


def prefilters(pl_exponent: float, ul_offset_db: float) -> bool:
    """Whether ``CellGrid.first_fires`` drops entries through ``may_fire``:
    on the box path, at a positive exponent, where the offset lets it drop
    some.  Elsewhere the box sees every entry and sends far ones to full rows."""
    return pl_exponent > 0 and ul_offset_db >= PREFILTER_SLACK_DB


def first_fires_bytes(
    entries: int, sequences: int, window: int, cells: int, pl_exponent: float, ul_offset_db: float
) -> int:
    """Bytes one ``CellGrid.first_fires`` call over ``entries`` entries of
    ``window`` samples in ``sequences`` holds with its positions, at most.
    Its box sees one entry a sequence at a time where it ``prefilters``,
    every entry elsewhere: 400 bytes a sample, and a far one a full row of
    32 bytes a cell (``CellGrid._distances`` holds one offset plane while
    numpy's subtraction forms the next beside two buffers of its size, up
    to 8192 elements; the trigger rule's masks over one sample's row take
    no more).  A non-positive exponent takes full rows, no box.  A call's
    small arrays take 6 KiB, 8 KiB on the box path."""
    box = 400 if pl_exponent > 0 else 0
    boxed = min(entries, sequences) if prefilters(pl_exponent, ul_offset_db) else entries
    small = 8192 if box else 6144
    return entries * (16 * window + 160) + boxed * (window * (32 * cells + box) + box) + small


def cell_grid_bytes(cells: int, ues: int) -> int:
    """Bytes a ``CellGrid`` holds while it builds its tables, 272 a cell (it
    keeps 112), and ``place_ues`` for ``ues`` UEs: 80 a UE, and 32 KiB of
    numpy's buffers and the boxes of 64 UEs' nearest cells."""
    return 272 * cells + 80 * ues + 2**15


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
        object.__setattr__(self, "_short_side", float(min(self.extent)))
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

    def _wrapped(self, pos: np.ndarray) -> np.ndarray:
        """``pos`` as floats, each coordinate past a torus's extent wrapped
        onto it (no run passes one: ``advance`` wraps).  A coordinate on
        the extent stays, so its distances keep their bits.  One min and
        one max over all coordinates, against the shorter side, decide
        whether to look, so on an oblong torus some calls compare every
        coordinate.  The public methods wrap once; the private ones take
        wrapped positions."""
        pos = np.asarray(pos, dtype=float)
        if self.wrap and (pos.min(initial=0.0) < 0.0 or pos.max(initial=0.0) > self._short_side):
            ext = self._extent_arr
            return np.where((pos < 0.0) | (pos > ext), np.mod(pos, ext), pos)
        return pos

    def distances(self, pos: np.ndarray) -> np.ndarray:
        """Distances from positions (..., 2) to every BS, shape (..., cells)."""
        return self._distances(self._wrapped(pos), self._bs_x, self._bs_y)

    def rsrp(self, pos: np.ndarray) -> np.ndarray:
        """Uplink received power per cell (dBm) for the given positions."""
        return self._power(self.distances(pos))

    def _rsrp(self, pos: np.ndarray) -> np.ndarray:
        return self._power(self._distances(pos, self._bs_x, self._bs_y))

    def _square_cells(self, pos: np.ndarray) -> np.ndarray:
        """The cell of the lattice square holding each wrapped position
        (..., 2): its nearest cell, or the nearest edge cell off an
        unwrapped grid."""
        square = pos / self.isd_m
        np.minimum(square, self._last_square, out=square)
        np.maximum(square, 0.0, out=square)
        square = square.astype(np.intp)
        return square[..., 1] * self.cols + square[..., 0]

    def _nearest_cells(self, pos: np.ndarray) -> np.ndarray:
        """The nearest cell to each wrapped position (..., 2): the argmin of
        ``_distances`` over its lattice square's box, which holds every cell
        within 1.5 ISD.  The box's ids ascend and its distances have the bits
        of ``distances``, so a tie keeps the lowest id, as a full row's does."""
        cells = self._box[self._square_cells(pos), :9]
        near = self._distances(pos, self._bs_x[cells], self._bs_y[cells]).argmin(axis=-1)
        return np.take_along_axis(cells, near[..., None], axis=-1)[..., 0]

    def box_rsrp(self, pos: np.ndarray, serving: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Powers for each entry's lattice box and serving cell.

        ``pos`` is (W, entries, 2), oldest sample first, inside the extent
        of a torus (as ``wrap_position`` leaves it), and ``serving``
        (entries,).  The box is the 3x3 neighbourhood of the lattice square
        holding the newest position (``_square_cells``), ids ascending.
        Returns ``cells`` (entries, 10), the box and then the serving cell,
        and their powers (W, entries, 10), computed with the operations of
        ``rsrp`` and so the same bits.
        """
        cells = self._box[self._square_cells(pos[-1])]
        cells[:, 9] = serving
        return cells, self._power(self._distances(pos, self._bs_x[cells], self._bs_y[cells]))

    def may_fire(self, newest: np.ndarray, serving: np.ndarray, ul_offset_db: float) -> np.ndarray:
        """Whether each entry's newest position (entries, 2) can trigger
        away from its ``serving`` cell (entries,).

        The lattice square holding a position is the Voronoi cell of its
        base station, so that cell n is the nearest and, with a positive
        exponent, the strongest.  A target must beat the serving cell by
        the offset at the newest sample, so an entry can fire only where
        p_n > p_s + offset.  ``PREFILTER_SLACK_DB`` covers a square that
        disagrees with the float argmin at an edge.  An entry that serves
        n has p_n - p_s = 0 exactly, so one int compare decides it, before
        any power: it is dropped at every offset of at least the slack.
        Since p_n >= p_s, a negative offset drops nothing.
        """
        return self._may_fire(self._wrapped(newest), np.asarray(serving), ul_offset_db)

    def _may_fire(self, newest: np.ndarray, serving: np.ndarray, ul_offset_db: float) -> np.ndarray:
        square = self._square_cells(newest)
        fire = np.full(len(square), ul_offset_db < PREFILTER_SLACK_DB)  # where n serves
        other = np.flatnonzero(square != serving)
        cells = np.column_stack([square[other], serving[other]])
        power = self._power(self._distances(newest[other], self._bs_x[cells], self._bs_y[cells]))
        fire[other] = power[:, 0] - power[:, 1] > ul_offset_db - PREFILTER_SLACK_DB
        return fire

    def first_fires(
        self, window_pos: np.ndarray, serving: np.ndarray, starts: np.ndarray, ul_offset_db: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``first_fires(self.rsrp(window_pos), serving, starts,
        ul_offset_db)``, computing powers only for the cells that can win
        and, where it ``prefilters``, only for the entries that can decide.

        ``window_pos`` holds the positions inside the time-to-trigger
        window, shape (W, entries, 2), oldest first, and ``serving`` the
        entries' serving cells (entries,).  Received power falls strictly
        with ``max(d, 1 m)``, so a cell can beat the serving cell by the
        offset only within the reach
        r = max(d_s, 1 m) * 10**(-offset / (10 * exponent)) of the newest
        position, and a cell must qualify at the newest sample.  Every cell
        outside the newest position's box (``box_rsrp``) is at least 1.5 ISD
        away.  Where the serving power plus the offset reaches the power at
        ``BOX_REACH_ISD`` ISDs, r is inside that with margin and the box
        decides; other entries, and every entry at a non-positive
        exponent, take the full row.  Where it prefilters, entries that
        ``may_fire`` rejects do not fire, and the box sees only each
        sequence's first surviving entry, then its next one where that did
        not fire, until the sequence fires or has no survivor left.
        """
        pos, serving, starts = self._wrapped(window_pos), np.asarray(serving), np.asarray(starts)
        if self.pl_exponent <= 0:  # no box holds every candidate
            return first_fires(self._rsrp(pos), serving, starts, ul_offset_db)
        if not prefilters(self.pl_exponent, ul_offset_db):
            targets = self._box_targets(pos, serving, ul_offset_db)
            index = _first_true(targets >= 0, starts)
            return index, np.append(targets, -1)[index]
        entries = len(serving)
        index, target = np.full(len(starts), entries), np.full(len(starts), -1)
        live = np.flatnonzero(self._may_fire(pos[-1], serving, ul_offset_db))
        seq = starts.searchsorted(live, side="right") - 1  # each survivor's sequence
        # positions in ``live`` of each sequence's first survivor
        at = np.flatnonzero(seq != np.concatenate(([-1], seq[:-1])))
        while len(at):
            entry = live[at]
            boxed = self._box_targets(pos[:, entry], serving[entry], ul_offset_db)
            hit = boxed >= 0
            index[seq[at[hit]]], target[seq[at[hit]]] = entry[hit], boxed[hit]
            at = at[~hit] + 1  # the next survivor, where it is in the same sequence
            at = at[at < len(live)]
            at = at[seq[at] == seq[at - 1]]
        return index, target

    def trigger_targets(
        self, window_pos: np.ndarray, serving: np.ndarray, ul_offset_db: float
    ) -> np.ndarray:
        """``trigger_targets(self.rsrp(window_pos), serving, ul_offset_db)``:
        ``first_fires`` with every entry a sequence of its own.

        ``window_pos`` has shape (W, *batch, 2), oldest first, and
        ``serving`` broadcasts against the batch.
        """
        window_pos = np.asarray(window_pos, dtype=float)
        batch = window_pos.shape[1:-1]
        serving = (np.asarray(serving) + np.zeros(batch, dtype=np.intp)).ravel()
        pos = window_pos.reshape(len(window_pos), -1, 2)  # (W, entries, 2)
        _, targets = self.first_fires(pos, serving, np.arange(len(serving)), ul_offset_db)
        return targets.reshape(batch)

    def _box_targets(
        self, pos: np.ndarray, serving: np.ndarray, ul_offset_db: float
    ) -> np.ndarray:
        """Each entry's target on the box path over wrapped (W, entries, 2)
        positions, -1 where none qualifies."""
        cells, power = self.box_rsrp(pos, serving)
        bar = power[:, :, 9:] + ul_offset_db  # (W, entries, 1): the power to beat
        mask = (power[:, :, :9] > bar).all(axis=0)
        mask &= cells[:, :9] != serving[:, None]
        best = np.where(mask, power[-1, :, :9], -np.inf).argmax(axis=1)
        targets = np.where(mask.any(axis=1), cells[np.arange(len(serving)), best], -1)
        far = np.flatnonzero(bar[-1, :, 0] < self._box_floor_dbm)
        if len(far):
            targets[far] = trigger_targets(self._rsrp(pos[:, far]), serving[far], ul_offset_db)
        return targets

    def wrap_position(self, pos: np.ndarray) -> np.ndarray:
        if not self.wrap:
            return pos
        return np.mod(pos, self._extent_arr)


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
    wins; equal powers break toward the lowest cell id.  This is
    ``first_fires`` with every entry a sequence of its own.
    """
    batch = window.shape[1:-1]
    flat = window.reshape(len(window), -1, window.shape[-1])  # (W, entries, cells)
    col = (np.asarray(serving) + np.zeros(batch, dtype=np.intp)).ravel()
    return first_fires(flat, col, np.arange(len(col)), ul_offset_db)[1].reshape(batch)


def first_fires(
    window: np.ndarray, serving: np.ndarray, starts: np.ndarray, ul_offset_db: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each sequence's first fire under the trigger rule (``trigger_targets``).

    ``window`` (W, entries, cells) holds the entries' samples, oldest
    first, and ``serving`` (entries,) their serving cells.  The entries
    are cut into sequences at ``starts``, ascending (a sequence may be
    empty).  Returns, per sequence, the index of its first entry that
    fires and that entry's target: len(entries) and -1 where none fires.
    Only the first fires pick their strongest cell.
    """
    entries = len(serving)
    rows = np.arange(entries)
    mask = (window > window[:, rows, serving, None] + ul_offset_db).all(axis=0)
    mask[rows, serving] = False
    index = _first_true(mask.any(axis=-1), np.asarray(starts))
    target = np.full(len(index), -1)
    found = (index < entries).nonzero()[0]
    hit = index[found]
    target[found] = np.where(mask[hit], window[-1, hit], -np.inf).argmax(axis=-1)
    return index, target


def _first_true(fire: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The index of each sequence's first entry where ``fire`` holds,
    len(fire) where none does."""
    entries = len(fire)
    # a fire past the last entry ends every search
    fired = np.concatenate((fire, [True])).nonzero()[0]
    index = fired[fired.searchsorted(starts)]
    index[index >= np.concatenate((starts[1:], [entries]))] = entries
    return index


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
    serving = np.empty(count, dtype=np.intp)
    for start in range(0, count, 64):  # 64 UEs' boxes at a time, 27 KiB at most
        serving[start : start + 64] = grid._nearest_cells(pos[start : start + 64])
    headings = draws[:, 2]
    return UeArrays(
        pos=pos,
        dirs=np.column_stack([np.cos(headings), np.sin(headings)]),
        speed=np.full(count, float(speed_mps)),
        serving=serving,
    )
