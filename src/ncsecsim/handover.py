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
the only driver of the table in a run; ``replay_key_signaling`` derives
the other schemes' key signals from its trigger columns.
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


def _ue(ue_id: int) -> str:
    return f"ue{ue_id}"


def upload_key_set(ledger: SimulatedLedger, cell: int, keys: KeyRing, now: int) -> bool:
    """Submit ``cell``'s key set to ``ledger`` at ``now``; returns whether
    it was accepted.  Submission is idempotent, so a cell whose key set is
    already pending or ledgered is not uploaded again."""
    entry = CandidateEntry(EntryKind.CELL_KEY_SET, _bsh(cell), keys, now, str(cell))
    return ledger.submit_candidate(entry).accepted


# Endpoint roles in a handover's signals: serving BS, target BS, UE, core.
_S, _T, _U, _CORE = range(4)


def _block(*signals: tuple[SignalKind, int, int]) -> tuple[tuple[int, ...], ...]:
    """A fixed signal sequence as columns: kind codes, source roles and
    destination roles."""
    kinds, srcs, dsts = zip(*signals)
    return tuple(KIND_CODE[k] for k in kinds), srcs, dsts


_REQUEST = (SignalKind.HO_REQUEST, _S, _T)
_COMPLETION = (
    (SignalKind.HO_ACK, _T, _S),
    (SignalKind.HO_COMMAND, _S, _U),
    (SignalKind.HO_CONFIRM, _U, _T),
    (SignalKind.KEY_TO_UE, _S, _U),
    (SignalKind.PATH_SWITCH, _CORE, _T),
    (SignalKind.HO_COMPLETE, _T, _S),
)

# Start patterns.  A handover's pattern fixes its key path, its start
# block (the request, then the baseline key transfer or the upload row
# the ledger writes) and its key signals once complete.  The first two
# complete at start, so their completion block follows the start block.
_BASELINE, _STEADY, _UPLOAD, _JOIN = range(4)
_KEY_PATH = (
    KeyPath.BASELINE_PER_HO, KeyPath.LEDGER_STEADY_STATE,
    KeyPath.LEDGER_FIRST_HO, KeyPath.LEDGER_FIRST_HO,
)
_START_LEN = (2, 1, 2, 1)
_KEY_SIGNALS = (2, 1, 3, 1)
_AT_START = (
    _block(_REQUEST, (SignalKind.KEY_TO_SBS, _T, _S), *_COMPLETION),
    _block(_REQUEST, *_COMPLETION),
    _block(_REQUEST),
    _block(_REQUEST),
)
_AT_FINISH = _block(*_COMPLETION)
_COLUMNS = (
    "ue_id", "s_cell", "t_cell", "t_trigger", "t_complete", "pattern",
    "start_row", "done_row", "broadcast_row",
)


class HoTable(Sequence["HoView"]):
    """Every handover of a run as parallel int columns, one row per
    trigger in start order.

    The columns are ``ue_id``, ``s_cell``, ``t_cell`` and ``t_trigger``;
    ``t_complete`` (-1 while waiting); ``pattern``, the start pattern; and
    the rows of the handover's signals in the ledger's trace:
    ``start_row`` and ``done_row``, the first rows of its start and
    completion blocks (-1 while waiting), and ``broadcast_row``, the block
    broadcast that carried its upload (-1 if it uploaded nothing).
    ``waiting`` maps each UE whose handover waits for its keys to its row.
    The columns are lists while the run appends to them and int64 arrays
    after ``sort_by_time``.  Indexing and iteration yield ``HoView``s.
    """

    def __init__(
        self,
        ledger: SimulatedLedger,
        scheme: Scheme,
        cell_keys: Mapping[int, KeyRing],
        timeout_ms: int | None = None,
    ):
        self.ledger = ledger
        self.trace = ledger.trace
        self._uses_ledger = scheme is Scheme.BLOCKCHAIN
        self.cell_keys = cell_keys
        self.timeout_ms = 2 * ledger.period if timeout_ms is None else timeout_ms
        for name in _COLUMNS:
            setattr(self, name, [])
        self.waiting: dict[int, int] = {}
        self._core = self.trace.name_id("core")

    def _emit(self, block: tuple, ue: int, s: int, t: int, now: int) -> int:
        """Append a fixed signal sequence (``_block``) of a handover at
        ``now``; returns its first row."""
        name_id = self.trace.name_id
        ids = (name_id(_bsh(s)), name_id(_bsh(t)), name_id(_ue(ue)), self._core)
        kinds, srcs, dsts = block
        return self.trace.extend(
            kinds, [ids[r] for r in srcs], [ids[r] for r in dsts], [now] * len(kinds)
        ).start

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
            row = self._emit(_AT_START[pattern], ue, s, t, now)
            if pattern == _UPLOAD:
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
            self.start_row.append(row)
            self.done_row.append(row + _START_LEN[pattern] if done else -1)
            self.broadcast_row.append(-1)
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
            if self.pattern[i] == _UPLOAD:
                self.broadcast_row[i] = self.ledger.broadcast_row(str(t), EntryKind.CELL_KEY_SET)
            self.done_row[i] = self._emit(_AT_FINISH, ue, s, t, now)
            self.t_complete[i] = now
            del self.waiting[ue]
            finished.append((ue, t))
        return finished

    def sort_by_time(self) -> None:
        """Put the trace in time order (``SignalTrace.sort_by_time``) and
        map the row columns onto it; the columns become int64 arrays.

        A block's rows share one time and are adjacent, so they stay
        adjacent and its first row still locates it.
        """
        order = self.trace.sort_by_time()
        new_row = np.full(len(order) + 1, -1, dtype=np.int64)  # new_row[-1] keeps -1
        new_row[order] = np.arange(len(order))
        for name in _COLUMNS:
            setattr(self, name, np.array(getattr(self, name), dtype=np.int64))
        for name in ("start_row", "done_row", "broadcast_row"):
            setattr(self, name, new_row[getattr(self, name)])

    def summary_rows(self) -> list[tuple[int, ...]]:
        """The ``ho_summary.csv`` rows of the completed handovers in start
        order: UE id, cells, trigger and completion times, key signals and
        preparation wait."""
        ue, s, t, t0, t1, pattern = (
            np.asarray(getattr(self, name), dtype=np.int64) for name in _COLUMNS[:6]
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
        """The handover's signals in its trace: its start block, the
        broadcast that carried its upload, then its completion block."""
        tab, i = self.table, self.row
        start = int(tab.start_row[i])
        rows = list(range(start, start + _START_LEN[self._pattern]))
        for first, count in ((tab.broadcast_row[i], 1), (tab.done_row[i], len(_COMPLETION))):
            if first >= 0:
                rows.extend(range(int(first), int(first) + count))
        return [tab.trace[r] for r in rows]


# ----------------------------------------------------------------------
# trace analytics and scheme replay
# ----------------------------------------------------------------------

def cumulative_key_exchanges(
    trace: Sequence[SignalRecord], horizon_ms: int, step_ms: int = 1000
) -> list[tuple[int, int]]:
    """Running key-exchange count sampled every ``step_ms`` up to horizon."""
    times = np.sort(as_trace(trace).key_exchange_times())
    grid = np.arange(0, horizon_ms + 1, step_ms)
    return list(zip(grid.tolist(), np.searchsorted(times, grid, side="right").tolist()))


def _name_ids(trace: SignalTrace, name, values: np.ndarray) -> np.ndarray:
    """Name ids in ``trace`` of ``name(v)`` for every entry of ``values``."""
    uniq, inverse = np.unique(values, return_inverse=True)
    ids = np.array([trace.name_id(name(v)) for v in uniq.tolist()], dtype=np.int64)
    return ids[inverse]


def replay_key_signaling(
    events: HoTable,
    scheme: Scheme,
    cell_keys: Mapping[int, KeyRing],
    horizon_ms: int,
    rs_period_ms: int = 160,
    collection_period_ms: int = 1000,
) -> SignalTrace:
    """Key-exchange signals of a time-ordered trigger stream under one
    key-sharing policy, with no per-UE concurrency limits.

    ``events`` is read through its trigger columns ``ue_id``, ``s_cell``,
    ``t_cell`` and ``t_trigger`` (a run's ``HoTable``, or any object with
    those four int sequences).

    Baseline handovers send keys to the serving BS and on to the UE at
    their trigger.  Under the ledger scheme each cell's key set is uploaded
    at its first trigger, and every handover gets its keys at the first RS
    instant at or after its block verified, as in the event loop; blocks
    verify up to the last RS instant at or before the horizon.
    """
    trace = SignalTrace()
    ue, s_cell, t_cell, t_trigger = (
        np.asarray(getattr(events, f), dtype=np.int64)
        for f in ("ue_id", "s_cell", "t_cell", "t_trigger")
    )
    s_ids, ue_ids = _name_ids(trace, _bsh, s_cell), _name_ids(trace, _ue, ue)
    if scheme is not Scheme.BLOCKCHAIN:
        # Two rows per event: target to serving BS, then serving BS to UE.
        trace.extend(
            [KIND_CODE[SignalKind.KEY_TO_SBS], KIND_CODE[SignalKind.KEY_TO_UE]] * len(ue),
            np.column_stack([_name_ids(trace, _bsh, t_cell), s_ids]).ravel().tolist(),
            np.column_stack([s_ids, ue_ids]).ravel().tolist(),
            np.repeat(t_trigger, 2).tolist(),
        )
        return trace
    led = SimulatedLedger({_bsh(c) for c in cell_keys}, collection_period_ms, trace)
    cells, first, inverse = np.unique(t_cell, return_index=True, return_inverse=True)
    for i in np.sort(first).tolist():  # each cell's first trigger, in stream order
        cell = int(t_cell[i])
        upload_key_set(led, cell, cell_keys[cell], int(t_trigger[i]))
    # Every boundary takes all candidates submitted at or before it, so one
    # tick gives the blocks that ticking on every RS instant would.
    led.tick(horizon_ms // rs_period_ms * rs_period_ms)
    verified_at = {e.domain: b.verified_at for b in led.blocks for e in b.entries}
    b = np.array([verified_at.get(str(c), -1) for c in cells.tolist()], dtype=np.int64)[inverse]
    got = b >= 0
    t_key = np.maximum(t_trigger[got], -(-b[got] // rs_period_ms) * rs_period_ms)
    trace.extend(
        [KIND_CODE[SignalKind.KEY_TO_UE]] * len(t_key),
        s_ids[got].tolist(), ue_ids[got].tolist(), t_key.tolist(),
    )
    return trace
