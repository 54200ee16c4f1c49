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
trigger in start order.  ``HoTable.start`` starts a tick's handovers,
which complete at once or, on the ledger scheme's first visit, wait for
their keys; ``HoTable.finish_waiting`` completes the waiting ones once the
ledger has ticked past their block.  The event loop in ``simulation`` is
the only driver of the table in a run.

Signals are not logged as they happen.  Every row of a trace follows
from a table's columns and the ledger's ``upload_log`` and ``blocks``, so
one builder makes the trace after the run: ``HoTable.trace`` for the
run's own scheme, and ``replay_key_signaling`` for another scheme, from
the patterns and completion times that the trigger columns imply.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import HoPreparationTimeout, InvalidParameter, NoOpHandover
from .integrity import KeyRing
from .keydist import Scheme
from .ledger import (
    KIND_CODE,
    SIGNALING_WINDOW_MS,
    CandidateEntry,
    EntryKind,
    SignalKind,
    SignalRecord,
    SignalTrace,
    SimulatedLedger,
    as_trace,
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


def _bsh(cell: int) -> str:
    return f"bsh{cell}"


def upload_key_set(ledger: SimulatedLedger, cell: int, keys: KeyRing, now: int) -> bool:
    """Submit ``cell``'s key set to ``ledger`` at ``now``; returns whether
    it was accepted.  Submission is idempotent, so a cell whose key set is
    already pending or ledgered is not uploaded again."""
    entry = CandidateEntry(EntryKind.CELL_KEY_SET, _bsh(cell), keys, now, str(cell))
    return ledger.submit_candidate(entry).accepted


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
_KEY_SIGNALS = (2, 1, 3, 1)
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
_COLUMNS = ("ue_id", "s_cell", "t_cell", "t_trigger", "t_complete", "pattern")


def _signal_trace(
    columns: Sequence[Sequence[int]],
    uploads: Sequence[tuple[int, int]] = (),
    broadcasts: Sequence[int] = (),
) -> SignalTrace:
    """The signal trace of a set of handovers, in time order.

    ``columns`` are the handovers' ``_COLUMNS``, ``uploads`` the ledger's
    uploads as (time, cell) in submission order and ``broadcasts`` the
    times of its blocks.  Each handover has a start block at its trigger
    (its pattern's template), and one that waited and completed has a
    completion block at its completion; an upload that no handover made
    is a prestaged upload row, and every block one broadcast row.

    Within one tick the loop acts in four phases, and its signals follow
    them: prestaged uploads, in submission order; each starting UE's start
    block (with its upload row), in UE order; the broadcasts of the
    boundaries the ledger passes, each stamped with its boundary; and
    completion blocks, in UE order.  One stable lexsort of the blocks on
    (time, phase, UE), then expanding each block into its template's
    rows, gives that order.
    """
    ue, s_cell, t_cell, t_trigger, t_complete, pattern = (
        np.asarray(c, dtype=np.int64) for c in columns
    )
    up_t, up_cell = np.asarray(uploads, dtype=np.int64).reshape(-1, 2).T
    prestaged = ~np.isin(up_cell, t_cell[pattern == _UPLOAD])
    up_t, up_cell = up_t[prestaged], up_cell[prestaged]
    done = np.flatnonzero((pattern >= _UPLOAD) & (t_complete >= 0))

    n, fixed = len(ue), len(_FIXED_NAMES)
    cells, cell_ids = np.unique(np.concatenate([s_cell, t_cell, up_cell]), return_inverse=True)
    ues, ue_ids = np.unique(ue, return_inverse=True)
    s_ids, t_ids, up_ids = np.split(cell_ids + fixed, [n, 2 * n])
    u_ids = ue_ids + fixed + len(cells)
    # Per block: time, phase, UE, template, and the serving, target and UE ids.
    parts = (
        (up_t, 0, 0, _PRESTAGE, 0, up_ids, 0),
        (t_trigger, 1, ue, pattern, s_ids, t_ids, u_ids),
        (np.asarray(broadcasts, dtype=np.int64), 2, 0, _BROADCAST, 0, 0, 0),
        (t_complete[done], 3, ue[done], _FINISH, s_ids[done], t_ids[done], u_ids[done]),
    )
    time, phase, who, template, *ends = (
        np.concatenate([np.broadcast_to(part[k], len(part[0])) for part in parts])
        for k in range(7)
    )
    order = np.lexsort((who, phase, time))  # stable: ties keep part and row order
    time, template = time[order], template[order]
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
        *_FIXED_NAMES, *(_bsh(c) for c in cells.tolist()), *(f"ue{u}" for u in ues.tolist())
    ]
    return SignalTrace.from_columns(times, *rows, names)


class HoTable(Sequence["HoView"]):
    """Every handover of a run as parallel int columns, one row per
    trigger in start order.

    The columns are ``ue_id``, ``s_cell``, ``t_cell`` and ``t_trigger``;
    ``t_complete`` (-1 while waiting); and ``pattern``, the start pattern.
    ``waiting`` maps each UE whose handover waits for its keys to its row.
    The columns are lists, to which the run appends.  Indexing and
    iteration yield ``HoView``s, and ``trace`` builds the signal trace.
    """

    def __init__(
        self,
        ledger: SimulatedLedger,
        scheme: Scheme,
        cell_keys: Mapping[int, KeyRing],
        timeout_ms: int | None = None,
    ):
        self.ledger = ledger
        self._uses_ledger = scheme is Scheme.BLOCKCHAIN
        self.cell_keys = cell_keys
        self.timeout_ms = 2 * ledger.period if timeout_ms is None else timeout_ms
        for name in _COLUMNS:
            setattr(self, name, [])
        self.waiting: dict[int, int] = {}

    def start(
        self, ues: Sequence[int], s_cells: Sequence[int], t_cells: Sequence[int], now: int
    ) -> np.ndarray:
        """Start the handovers of UEs that fired at ``now``, given in UE id
        order; returns which of them completed at once.

        A baseline handover, or a ledger one whose target cell is ledgered,
        completes at once.  A ledger first visit uploads the target cell's
        key set unless it is already pending, and waits.
        """
        ledger = self.ledger
        completed = []
        for ue, s, t in zip(ues, s_cells, t_cells):
            if s == t:
                raise NoOpHandover(f"ue{ue}: target equals serving cell {s}")
            if not self._uses_ledger:
                pattern = _BASELINE
            elif ledger.query_keys(_bsh(s), str(t)) is not None:
                pattern = _STEADY
            elif ledger.is_pending(str(t), EntryKind.CELL_KEY_SET):
                pattern = _JOIN
            elif t not in self.cell_keys:
                raise InvalidParameter(f"no key set supplied for cell {t}")
            else:
                pattern = _UPLOAD
                upload_key_set(ledger, t, self.cell_keys[t], now)
            done = pattern <= _STEADY
            if not done:
                self.waiting[ue] = len(self.ue_id)
            self.ue_id.append(ue)
            self.s_cell.append(s)
            self.t_cell.append(t)
            self.t_trigger.append(now)
            self.t_complete.append(now if done else -1)
            self.pattern.append(pattern)
            completed.append(done)
        return np.array(completed, dtype=bool)

    def finish_waiting(self, now: int) -> list[tuple[int, int]]:
        """Complete, in UE id order, the waiting handovers whose target
        cell is ledgered by ``now``; returns their (UE id, target cell).

        Raises ``HoPreparationTimeout`` for one still without keys after
        waiting longer than the timeout.
        """
        finished = []
        for ue in sorted(self.waiting):
            i = self.waiting[ue]
            s, t = self.s_cell[i], self.t_cell[i]
            if self.ledger.query_keys(_bsh(s), str(t)) is None:
                if now - self.t_trigger[i] > self.timeout_ms:
                    raise HoPreparationTimeout(
                        f"ue{ue}: keys for domain {t} not ledgered within {self.timeout_ms} ms"
                    )
                continue
            self.t_complete[i] = now
            del self.waiting[ue]
            finished.append((ue, t))
        return finished

    def trace(self) -> SignalTrace:
        """The signal trace of the table's handovers and its ledger's
        uploads and blocks, in time order.  The ledger's uploads are cell
        key sets, whose domain is the cell id."""
        uploads = [(t, int(domain)) for t, _, domain in self.ledger.upload_log]
        broadcasts = [block.verified_at for block in self.ledger.blocks]
        return _signal_trace([getattr(self, name) for name in _COLUMNS], uploads, broadcasts)

    def summary_rows(self) -> list[tuple[int, ...]]:
        """The ``ho_summary.csv`` rows of the completed handovers in start
        order: UE id, cells, trigger and completion times, key signals and
        preparation wait."""
        ue, s, t, t0, t1, pattern = (
            np.asarray(getattr(self, name), dtype=np.int64) for name in _COLUMNS
        )
        cols = (ue, s, t, t0, t1, np.array(_KEY_SIGNALS)[pattern], t1 - t0)
        return list(zip(*(c[t1 >= 0].tolist() for c in cols)))

    def __len__(self) -> int:
        return len(self.ue_id)

    def __getitem__(self, i: int) -> HoView:
        return HoView(self, range(len(self))[i])


def _column(name: str) -> property:
    return property(lambda view: int(getattr(view.table, name)[view.row]))


class HoView:
    """One row of a ``HoTable`` read as a handover."""

    __slots__ = ("table", "row")

    def __init__(self, table: HoTable, row: int):
        self.table = table
        self.row = row

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
        return _KEY_SIGNALS[self._pattern] if self.complete else int(self.did_upload)

    @property
    def signals(self) -> list[SignalRecord]:
        """The handover's signals: its start block, the broadcast that
        carried its upload, then its completion block."""
        tab, domain = self.table, str(self.t_cell)
        carried = self.did_upload and self.complete
        broadcasts = [
            block.verified_at for block in tab.ledger.blocks
            if carried and any(e.domain == domain for e in block.entries)
        ]
        row = [[getattr(tab, name)[self.row]] for name in _COLUMNS]
        return list(_signal_trace(row, (), broadcasts))


# ----------------------------------------------------------------------
# trace analytics and scheme replay
# ----------------------------------------------------------------------

def cumulative_key_exchanges(
    trace: Sequence[SignalRecord], horizon_ms: int
) -> list[tuple[int, int]]:
    """Running key-exchange count at the start of every signaling window."""
    times = np.sort(as_trace(trace).key_exchange_times())
    grid = np.arange(0, horizon_ms + 1, SIGNALING_WINDOW_MS)
    return list(zip(grid.tolist(), np.searchsorted(times, grid, side="right").tolist()))


def replay_key_signaling(
    events: HoTable,
    scheme: Scheme,
    horizon_ms: int,
    rs_period_ms: int = 160,
    collection_period_ms: int = 1000,
) -> SignalTrace:
    """Signal trace of a time-ordered trigger stream under one
    key-sharing policy, with no per-UE concurrency limits.

    ``events`` is read through its trigger columns ``ue_id``, ``s_cell``,
    ``t_cell`` and ``t_trigger`` (a run's ``HoTable``, or any object with
    those four int sequences).  The patterns and completion times follow
    from them as in the event loop, and the trace from those as in
    ``HoTable.trace``.

    Baseline handovers complete at their trigger.  Under the ledger
    scheme each cell's first trigger uploads its key set, which verifies
    at the first collection boundary at or after it; blocks verify up to
    the last RS instant at or before the horizon, and the loop sees a
    block at the first RS instant at or after its boundary.  A trigger up
    to that instant joins the upload and a later one is steady; each
    completes at the later of its trigger and that instant.
    """
    ue, s_cell, t_cell, t_trigger = (
        np.asarray(getattr(events, name), dtype=np.int64) for name in _COLUMNS[:4]
    )
    if scheme is not Scheme.BLOCKCHAIN:
        pattern = np.full(len(ue), _BASELINE)
        return _signal_trace((ue, s_cell, t_cell, t_trigger, t_trigger, pattern))
    _, first, cell = np.unique(t_cell, return_index=True, return_inverse=True)
    boundary = -(-t_trigger[first] // collection_period_ms) * collection_period_ms
    verified = boundary <= horizon_ms // rs_period_ms * rs_period_ms
    seen = (-(-boundary // rs_period_ms) * rs_period_ms)[cell]
    pattern = np.where(t_trigger > seen, _STEADY, _JOIN)
    pattern[first] = _UPLOAD
    t_complete = np.where(verified[cell], np.maximum(t_trigger, seen), -1)
    return _signal_trace(
        (ue, s_cell, t_cell, t_trigger, t_complete, pattern), (), np.unique(boundary[verified])
    )
