"""Uplink-triggered handovers with pluggable key sharing.

The control sequence follows the usual prepare/execute/complete shape:
request, acknowledgement, command to the UE, confirm, key delivery, path
switch, completion.  What differs between schemes is how the target
cell's MAC keys reach the serving side:

* ledger scheme, first visit to a cell: the target controller uploads the
  cell key set as a ledger candidate and preparation blocks until the
  block verifies (three key-exchange signals end to end: upload,
  broadcast, key delivery to the UE);
* ledger scheme, cell already ledgered: the serving controller reads its
  local replica and only the key delivery to the UE remains (one signal);
* baseline schemes: the target sends a key subset to the serving BS and
  the serving BS forwards keys to the UE, on every single handover (two
  signals).

Every cell is its own security domain, so every handover needs key
sharing.  A shared block broadcast is attributed to the handover that
caused the upload, which keeps per-handover costs at exactly {1, 3} for
the ledger scheme and 2 for the baselines while the raw trace still
records each broadcast once.

A run's handovers live in one ``HoTable``: parallel columns, one row per
trigger in start order, and each cell's key-set upload time.  ``start``
starts a tick's handovers, which complete at once or, on the ledger
scheme's first visit, wait for their keys until the RS instant that sees
their block (``ledger.key_seen``, then ``key_outcome``, decided at
start); ``finish_waiting`` completes them once the clock reaches it.
The event loop in ``simulation`` is the only driver of the table.

Signals are not logged as they happen.  Every row of a trace follows
from a table's columns and upload times, so one builder makes the trace
after the run: ``HoTable.trace`` for the run's own scheme, and
``replay_key_signaling`` for another scheme, from the patterns and
completion times that ``key_outcome`` gives on the trigger columns.
Both read one rule of which blocks a trace has (``_blocks``), and so
does ``_key_times``, which gives the trace's key-exchange times from
each block's time and template alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InvalidParameter, NoOpHandover
from .keydist import Scheme
from .ledger import (
    _KEY_MASK,
    KIND_CODE,
    SIGNALING_WINDOW_MS,
    SignalKind,
    SignalRecord,
    SignalTrace,
    _windows,
    as_trace,
    key_blocks,
    key_seen,
)


class KeyPath(Enum):
    LEDGER_FIRST_HO = "ledger_first_ho"
    LEDGER_STEADY_STATE = "ledger_steady_state"
    BASELINE_PER_HO = "baseline_per_ho"


@dataclass(frozen=True)
class PredictionConfig:
    enabled: bool = False
    accuracy: float = 0.8
    lead_ms: int = 160

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise InvalidParameter("prediction accuracy must be in [0, 1]")
        if self.lead_ms < 0:
            raise InvalidParameter("prediction lead must be >= 0")


def key_outcome(t_trigger, seen_ms):
    """The start pattern and completion instant of a ledger handover
    triggered at ``t_trigger`` whose target's upload is seen at ``seen_ms``
    (``key_seen``; ints or int arrays alike): up to that instant it joins
    the upload and completes there, later it is steady and completes at
    its trigger."""
    late = t_trigger > seen_ms
    return _JOIN - late * (_JOIN - _STEADY), seen_ms + late * (t_trigger - seen_ms)


# Endpoint roles in a trace block: serving BS, target BS (or the uploading
# cell), UE, and the fixed endpoints, whose names take the first ids.
_S, _T, _U, _CORE, _LEDGER, _ALL = range(6)
_FIXED_NAMES = ("core", "ledger", "all_bsh")

_REQUEST = (SignalKind.HO_REQUEST, _S, _T)
_UPLOAD_ROW = (SignalKind.CANDIDATE_UPLOAD, _T, _LEDGER)
_COMPLETION = (
    (SignalKind.HO_ACK, _T, _S),
    (SignalKind.HO_COMMAND, _S, _U),
    (SignalKind.HO_CONFIRM, _U, _T),
    (SignalKind.KEY_TO_UE, _S, _U),
    (SignalKind.PATH_SWITCH, _CORE, _T),
    (SignalKind.HO_COMPLETE, _T, _S),
)

# Start patterns.  A handover's pattern fixes its key path, its start
# block and its key signals once complete.  The first two complete at
# start, so their start block ends with the completion signals; the other
# two wait, and their completion block follows once the keys arrive.
_BASELINE, _STEADY, _UPLOAD, _JOIN = range(4)
_KEY_PATH = (
    KeyPath.BASELINE_PER_HO, KeyPath.LEDGER_STEADY_STATE,
    KeyPath.LEDGER_FIRST_HO, KeyPath.LEDGER_FIRST_HO,
)
# Trace block templates, indexed by pattern for start blocks, then the
# completion block, a prestaged upload and a block broadcast.
_FINISH, _PRESTAGE, _BROADCAST = range(4, 7)
_TEMPLATES = (
    (_REQUEST, (SignalKind.KEY_TO_SBS, _T, _S), *_COMPLETION),
    (_REQUEST, *_COMPLETION),
    (_REQUEST, _UPLOAD_ROW),
    (_REQUEST,),
    _COMPLETION,
    (_UPLOAD_ROW,),
    ((SignalKind.BLOCK_BROADCAST, _LEDGER, _ALL),),
)
_TEMPLATE_LEN = np.array([len(block) for block in _TEMPLATES])
# (template, row in block) -> (kind code, source role, destination role)
_TEMPLATE_ROWS = np.array([
    [(KIND_CODE[k], src, dst) for k, src, dst in block]
    + [(0, 0, 0)] * (_TEMPLATE_LEN.max() - len(block))
    for block in _TEMPLATES
])
# Key-exchange rows per template: ``_KEY_MASK`` of its rows' kinds, the
# padding past its length masked off.
_TEMPLATE_KEYS = (
    _KEY_MASK[_TEMPLATE_ROWS[..., 0]]
    & (np.arange(_TEMPLATE_ROWS.shape[1]) < _TEMPLATE_LEN[:, None])
).sum(axis=1)
# Key signals of a completed handover per pattern: its start block's, the
# completion block's if it waited, and the broadcast's if it uploaded.
_KEY_SIGNALS = (
    _TEMPLATE_KEYS[:_FINISH]
    + (np.arange(_FINISH) >= _UPLOAD) * _TEMPLATE_KEYS[_FINISH]
    + (np.arange(_FINISH) == _UPLOAD) * _TEMPLATE_KEYS[_BROADCAST]
)
_COLUMNS = ("ue_id", "s_cell", "t_cell", "t_trigger", "t_complete", "pattern")


def _blocks(
    columns: Sequence[Sequence[int]],
    uploads: Sequence[tuple[int, int]],
    end_ms: int,
    collection_period_ms: int,
) -> tuple[tuple, ...]:
    """The blocks of the signal trace of a set of handovers.

    ``columns`` are the handovers' ``_COLUMNS`` and ``uploads`` the
    key-set uploads as (time, cell) in upload order.  Each handover has a
    start block at its trigger (its pattern's template), and one that
    waited and completed has a completion block at its completion; an
    upload that no handover made is a prestaged upload block, and every
    block verified by ``end_ms`` a broadcast block.

    The blocks come in four parts, in the order of the phases of a tick:
    prestaged uploads, in upload order; start blocks, in row order;
    broadcasts, each stamped with its boundary; completion blocks, in row
    order.  A part is its blocks' times and templates, then their serving
    cells, target cells (the uploading cell of a prestaged upload) and
    UEs, in the order of the roles ``_S``, ``_T`` and ``_U``: int64
    arrays, or 0 for a role the part's templates do not name.
    """
    ue, s_cell, t_cell, t_trigger, t_complete, pattern = (
        np.asarray(c, dtype=np.int64) for c in columns
    )
    up_t, up_cell = np.asarray(uploads, dtype=np.int64).reshape(-1, 2).T
    broadcasts, _ = key_blocks(up_t, end_ms, collection_period_ms)
    prestaged = ~np.isin(up_cell, t_cell[pattern == _UPLOAD])
    done = np.flatnonzero((pattern >= _UPLOAD) & (t_complete >= 0))
    return (
        (up_t[prestaged], _PRESTAGE, 0, up_cell[prestaged], 0),
        (t_trigger, pattern, s_cell, t_cell, ue),
        (broadcasts, _BROADCAST, 0, 0, 0),
        (t_complete[done], _FINISH, s_cell[done], t_cell[done], ue[done]),
    )


def _signal_trace(
    columns: Sequence[Sequence[int]],
    uploads: Sequence[tuple[int, int]],
    end_ms: int,
    collection_period_ms: int,
) -> SignalTrace:
    """The signal trace of a set of handovers (``_blocks`` of the same
    arguments), in time order.

    Within one tick the loop acts in the order of the blocks' parts, and
    its signals follow it: within a part, in UE order (prestaged uploads
    in upload order).  One stable lexsort of the blocks on (time, part,
    UE), then expanding each block into its template's rows, gives that
    order.  The blocks are made of the handovers and uploads with their
    cells and UEs as endpoint ids: the fixed names' come first, then the
    cells' and the UEs', each in ascending order, so the order of the UE
    ids is that of the UEs.
    """
    ue, s_cell, t_cell, t_trigger, t_complete, pattern = (
        np.asarray(c, dtype=np.int64) for c in columns
    )
    up_t, up_cell = np.asarray(uploads, dtype=np.int64).reshape(-1, 2).T
    n, fixed = len(ue), len(_FIXED_NAMES)
    cells, cell_ids = np.unique(np.concatenate([s_cell, t_cell, up_cell]), return_inverse=True)
    ues, ue_ids = np.unique(ue, return_inverse=True)
    s_ids, t_ids, up_ids = np.split(cell_ids + fixed, [n, 2 * n])
    ids = (ue_ids + fixed + len(cells), s_ids, t_ids, t_trigger, t_complete, pattern)
    parts = _blocks(ids, np.c_[up_t, up_ids], end_ms, collection_period_ms)
    time, template, *ends = (
        np.concatenate([np.broadcast_to(part[k], len(part[0])) for part in parts])
        for k in range(5)
    )
    phase = np.repeat(np.arange(len(parts)), [len(part[0]) for part in parts])
    order = np.lexsort((ends[_U], phase, time))  # stable: ties keep part and row order
    time, template = time[order], template[order]
    # per block, the ids of its roles: serving, target and UE, then the fixed endpoints
    ends = np.column_stack([*ends, *(np.full(len(time), i) for i in range(fixed))])[order]

    # Expand the blocks row position by row position into the trace's
    # columns: time, then kind code, source id and destination id.
    lengths = _TEMPLATE_LEN[template]
    first = np.cumsum(lengths) - lengths
    times = np.empty(lengths.sum(), dtype=np.int64)
    rows = np.empty((3, len(times)), dtype=np.int32)
    for j in range(_TEMPLATE_ROWS.shape[1]):
        has = np.flatnonzero(lengths > j)
        kind, src, dst = _TEMPLATE_ROWS[template[has], j].T
        times[first[has] + j] = time[has]
        rows[:, first[has] + j] = kind, ends[has, src], ends[has, dst]
    names = [
        *_FIXED_NAMES, *(f"bsh{c}" for c in cells.tolist()), *(f"ue{u}" for u in ues.tolist())
    ]
    return SignalTrace.from_columns(times, *rows, names)


def _key_times(
    columns: Sequence[Sequence[int]],
    uploads: Sequence[tuple[int, int]],
    end_ms: int,
    collection_period_ms: int,
) -> np.ndarray:
    """The times of the key-exchange rows of ``_signal_trace`` of the same
    arguments, in no set order: each of its ``_blocks``' times, once per
    key-exchange row of the block's template (``_TEMPLATE_KEYS``)."""
    parts = _blocks(columns, uploads, end_ms, collection_period_ms)
    return np.concatenate([
        np.repeat(time, _TEMPLATE_KEYS[template]) for time, template, *_ in parts
    ])


class HoTable(Sequence["HoView"]):
    """Every handover of a run as parallel int columns, one row per
    trigger in start order.

    The columns are ``ue_id``, ``s_cell``, ``t_cell`` and ``t_trigger``;
    ``t_complete`` (-1 while waiting); and ``pattern``, the start pattern.
    ``waiting`` maps each UE whose handover waits for its keys to its row.
    The columns are lists, to which ``start`` appends, until
    ``_columns_to_arrays`` makes them int64 arrays once a run ends, which
    readers then take as they are.  ``uploaded_at`` is
    each cell's upload time (-1 for none), ``seen_at`` the RS instant that
    sees its block (``key_seen``) and ``uploads`` the cells in upload
    order.  ``start`` decides each outcome from ``seen_at``
    (``key_outcome``), and ``clock``, the last ``finish_waiting`` time,
    says which have happened.  Indexing and iteration yield ``HoView``s
    (a slice, a list of them), and ``trace`` builds the signal trace.
    """

    def __init__(self, scheme: Scheme, cells: int, collection_period_ms: int, rs_period_ms: int):
        if collection_period_ms <= 0 or rs_period_ms <= 0:
            raise InvalidParameter("collection and RS periods must be positive")
        self._uses_ledger = scheme is Scheme.BLOCKCHAIN
        self.period, self.rs = int(collection_period_ms), int(rs_period_ms)
        for name in _COLUMNS:
            setattr(self, name, [])
        self.waiting: dict[int, int] = {}
        self.uploaded_at = [-1] * cells
        self.seen_at = [-1] * cells
        self.uploads: list[int] = []
        self.clock = -1

    def upload(self, cell: int, now: int) -> bool:
        """Record ``cell``'s key-set upload at ``now`` unless it has one;
        returns whether it was recorded."""
        if not 0 <= cell < len(self.uploaded_at):
            raise InvalidParameter(f"cell {cell} is outside the grid's {len(self.uploaded_at)} cells")
        if self.uploaded_at[cell] >= 0:
            return False
        self.uploaded_at[cell] = now
        self.seen_at[cell] = key_seen(now, self.period, self.rs)
        self.uploads.append(cell)
        return True

    def start(
        self, ues: Sequence[int], s_cells: Sequence[int], t_cells: Sequence[int], now: int
    ) -> np.ndarray:
        """Start the handovers of UEs that fired at ``now``, given in UE id
        order; returns which of them completed at once.

        A baseline handover, or a ledger one after the RS instant that
        sees its target's block, completes at once.  A ledger first visit
        uploads the target cell's key set, or joins its upload, and waits
        for that instant.  A bad handover raises before any of the batch
        is recorded.
        """
        for ue, s, t in zip(ues, s_cells, t_cells):
            if s == t:
                raise NoOpHandover(f"ue{ue}: target equals serving cell {s}")
            if not 0 <= t < len(self.uploaded_at):
                raise InvalidParameter(f"ue{ue}: target cell {t} is outside the grid")
        completed = []
        for ue, s, t in zip(ues, s_cells, t_cells):
            if not self._uses_ledger:
                pattern, t_done = _BASELINE, now
            else:
                uploaded = self.upload(t, now)
                pattern, t_done = key_outcome(now, self.seen_at[t])
                if uploaded:
                    pattern = _UPLOAD
            done = pattern <= _STEADY
            if not done:
                self.waiting[ue] = len(self.ue_id)
                t_done = -1
            self.ue_id.append(ue)
            self.s_cell.append(s)
            self.t_cell.append(t)
            self.t_trigger.append(now)
            self.t_complete.append(t_done)
            self.pattern.append(pattern)
            completed.append(done)
        return np.array(completed, dtype=bool)

    def finish_waiting(self, now: int) -> list[tuple[int, int]]:
        """Advance the clock to ``now`` and complete, in UE id order, the
        waiting handovers whose completion instant has come; returns their
        (UE id, target cell).
        """
        self.clock = now
        finished = []
        for ue in sorted(self.waiting):
            i = self.waiting[ue]
            t = self.t_cell[i]
            if self.seen_at[t] > now:
                continue
            self.t_complete[i] = self.seen_at[t]
            del self.waiting[ue]
            finished.append((ue, t))
        return finished

    def next_seen(self, now: int) -> int | None:
        """While some cell's keys are not seen before ``now``, the first RS
        instant at or after ``now`` that sees a block, where waits can end;
        None once all are seen, and on the baseline schemes."""
        uploads = self.uploads
        if self._uses_ledger and (
            len(uploads) < len(self.seen_at) or (uploads and self.seen_at[uploads[-1]] >= now)
        ):
            return key_seen(now - self.rs + 1, self.period, self.rs)
        return None

    def _columns_to_arrays(self) -> None:
        """Make the columns int64 arrays, once no row is to be appended;
        ``finish_waiting`` still completes rows in place."""
        for name in _COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    def _trace_inputs(self) -> tuple:
        """The table's handovers, uploads and clock as the arguments of
        ``_signal_trace`` and ``_key_times``."""
        uploads = [(self.uploaded_at[c], c) for c in self.uploads]
        columns = [getattr(self, name) for name in _COLUMNS]
        return columns, uploads, self.clock, self.period

    def trace(self) -> SignalTrace:
        """The signal trace of the table's handovers, uploads and the
        blocks up to the clock, in time order."""
        return _signal_trace(*self._trace_inputs())

    def summary_columns(self) -> list[np.ndarray]:
        """The ``ho_summary.csv`` columns of the completed handovers in
        start order, as int64 arrays: UE id, cells, trigger and completion
        times, key signals and preparation wait."""
        ue, s, t, t0, t1, pattern = (
            np.asarray(getattr(self, name), dtype=np.int64) for name in _COLUMNS
        )
        done = t1 >= 0
        cols = (ue, s, t, t0, t1, _KEY_SIGNALS[pattern], t1 - t0)
        return [c[done] for c in cols]

    def __len__(self) -> int:
        return len(self.ue_id)

    def __getitem__(self, i):
        rows = range(len(self))[i]
        return [HoView(self, row) for row in rows] if isinstance(i, slice) else HoView(self, rows)


def _column(name: str) -> property:
    return property(lambda view: int(getattr(view.table, name)[view.row]))


@dataclass(slots=True, unsafe_hash=True)
class HoView:
    """One row of a ``HoTable`` read as a handover.  Views are equal, and
    hash alike, when they read the same row of the same table."""

    table: HoTable
    row: int

    ue_id = _column("ue_id")
    s_cell = _column("s_cell")
    t_cell = _column("t_cell")
    t_trigger = _column("t_trigger")
    _pattern = _column("pattern")

    @property
    def t_complete(self) -> int | None:
        t = int(self.table.t_complete[self.row])
        return None if t < 0 else t

    @property
    def complete(self) -> bool:
        return self.t_complete is not None

    @property
    def prep_wait_ms(self) -> int | None:
        t = self.t_complete
        return None if t is None else t - self.t_trigger

    @property
    def key_path(self) -> KeyPath:
        return _KEY_PATH[self._pattern]

    @property
    def did_upload(self) -> bool:
        return self._pattern == _UPLOAD

    @property
    def key_signal_count(self) -> int:
        """Key-exchange signals of the handover so far: those of its start
        pattern once complete, its upload while it waits."""
        return int(_KEY_SIGNALS[self._pattern]) if self.complete else int(self.did_upload)

    @property
    def signals(self) -> list[SignalRecord]:
        """The handover's signals: its start block, the broadcast that
        carried its upload, then its completion block."""
        tab = self.table
        uploads = [(tab.uploaded_at[self.t_cell], self.t_cell)] if self.did_upload else []
        row = [[getattr(tab, name)[self.row]] for name in _COLUMNS]
        return list(_signal_trace(row, uploads, tab.t_complete[self.row], tab.period))


# ----------------------------------------------------------------------
# trace analytics and scheme replay
# ----------------------------------------------------------------------

def cumulative_key_exchanges(
    trace: Sequence[SignalRecord], horizon_ms: int
) -> list[tuple[int, int]]:
    """Running key-exchange count at the start of every signaling window."""
    _, curve = _windows(as_trace(trace).key_exchange_times(), horizon_ms)
    return list(zip(range(0, horizon_ms + 1, SIGNALING_WINDOW_MS), curve.tolist()))


def _replay(
    events: HoTable,
    scheme: Scheme,
    horizon_ms: int,
    rs_period_ms: int,
    collection_period_ms: int,
) -> tuple:
    """The arguments of ``_signal_trace`` and ``_key_times`` for a
    trigger stream under one key-sharing policy: its patterns and
    completion times, as ``replay_key_signaling`` gives them."""
    ue, s_cell, t_cell, t_trigger = (
        np.asarray(getattr(events, name), dtype=np.int64) for name in _COLUMNS[:4]
    )
    end = horizon_ms // rs_period_ms * rs_period_ms
    uploads, pattern, t_complete = (), np.full(len(ue), _BASELINE), t_trigger
    if scheme is Scheme.BLOCKCHAIN:
        _, first, cell = np.unique(t_cell, return_index=True, return_inverse=True)
        uploads = np.c_[t_trigger[first], t_cell[first]]
        seen = key_seen(uploads[:, 0], collection_period_ms, rs_period_ms)
        pattern, t_complete = key_outcome(t_trigger, seen[cell])
        pattern[first] = _UPLOAD
    t_complete = np.where(t_complete <= end, t_complete, -1)
    columns = (ue, s_cell, t_cell, t_trigger, t_complete, pattern)
    return columns, uploads, end, collection_period_ms


def replay_key_signaling(
    events: HoTable,
    scheme: Scheme,
    horizon_ms: int,
    rs_period_ms: int,
    collection_period_ms: int,
) -> SignalTrace:
    """Signal trace of a time-ordered trigger stream under one
    key-sharing policy, with no per-UE concurrency limits.

    ``events`` is read through its trigger columns ``ue_id``, ``s_cell``,
    ``t_cell`` and ``t_trigger`` (a run's ``HoTable``, or any object with
    those four int sequences).  The patterns and completion times follow
    from them as in the event loop, and the trace from those as in
    ``HoTable.trace``.  A run's table replays at its own ``rs`` and
    ``period``.

    Baseline handovers complete at their trigger.  Under the ledger
    scheme each cell's first trigger uploads its key set, and every
    trigger takes its pattern and completion instant from the RS instant
    that sees that upload (``key_seen``, then ``key_outcome``); blocks
    verify up to the last RS instant at or before the horizon, and a
    handover whose block does not stays incomplete.
    """
    return _signal_trace(*_replay(events, scheme, horizon_ms, rs_period_ms, collection_period_ms))
