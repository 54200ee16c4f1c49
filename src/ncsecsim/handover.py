"""Uplink-triggered handover procedure with pluggable key sharing.

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

Handovers between cells of the same security domain skip key sharing
entirely.  A shared block broadcast is attributed to the handover that
caused the upload, which keeps per-handover costs at exactly {1, 3} for
the ledger scheme and 2 for the baselines while the raw trace still
records each broadcast once.

``begin_handover`` returns a procedure that is either complete or, on
the ledger scheme's first visit, waiting for its keys to be ledgered;
``try_complete`` finishes a waiting one once the ledger has ticked past
its block.  The event loop in ``simulation`` is the only driver of the
two in a run; ``replay_key_signaling`` derives the other schemes' key
signals from its trigger stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .errors import HoPreparationTimeout, InvalidParameter, NoOpHandover
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
    INTRA_DOMAIN = "intra_domain"


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


@dataclass
class HoProcedure:
    ue_id: int
    s_cell: int
    t_cell: int
    scheme: Scheme
    t_trigger: int
    timeout_ms: int
    # The trace this procedure signals on; ``rows`` are its signals there.
    trace: SignalTrace = field(repr=False, compare=False)
    t_complete: int | None = None
    prep_wait_ms: int | None = None
    key_path: KeyPath | None = None
    did_upload: bool = False
    t_domain: str = ""
    rows: list[int] = field(default_factory=list)

    @property
    def signals(self) -> list[SignalRecord]:
        return [self.trace[i] for i in self.rows]

    @property
    def key_signal_count(self) -> int:
        return self.trace.count_key_exchanges(self.rows)

    @property
    def complete(self) -> bool:
        return self.t_complete is not None


def _bsh(cell: int) -> str:
    return f"bsh{cell}"


def _ue(ue_id: int) -> str:
    return f"ue{ue_id}"


# Endpoint roles in a procedure's signals: serving BS, target BS, UE, core.
_S, _T, _U, _CORE = range(4)


def _columns(*signals: tuple[SignalKind, int, int]) -> tuple[tuple[int, ...], ...]:
    """A fixed signal sequence as columns: kind codes, source roles and
    destination roles."""
    kinds, srcs, dsts = zip(*signals)
    return tuple(KIND_CODE[k] for k in kinds), srcs, dsts


_REQUEST = _columns((SignalKind.HO_REQUEST, _S, _T))
_KEY_TO_SBS = _columns((SignalKind.KEY_TO_SBS, _T, _S))
_COMPLETION = {
    deliver_keys: _columns(
        (SignalKind.HO_ACK, _T, _S),
        (SignalKind.HO_COMMAND, _S, _U),
        (SignalKind.HO_CONFIRM, _U, _T),
        *([(SignalKind.KEY_TO_UE, _S, _U)] if deliver_keys else []),
        (SignalKind.PATH_SWITCH, _CORE, _T),
        (SignalKind.HO_COMPLETE, _T, _S),
    )
    for deliver_keys in (False, True)
}


def _endpoints(proc: HoProcedure) -> tuple[int, int, int, int]:
    """Name ids of the procedure's endpoints in its trace, indexed by role."""
    name_id = proc.trace.name_id
    s, t, u = _bsh(proc.s_cell), _bsh(proc.t_cell), _ue(proc.ue_id)
    return name_id(s), name_id(t), name_id(u), name_id("core")


def _emit(proc: HoProcedure, ids: tuple[int, ...], now: int, columns: tuple) -> None:
    """Append a fixed signal sequence (``_columns``) at ``now`` as rows of
    the procedure; ``ids`` are its endpoints by role."""
    kinds, srcs, dsts = columns
    proc.rows.extend(proc.trace.extend(
        kinds, [ids[r] for r in srcs], [ids[r] for r in dsts], (now,) * len(kinds)
    ))


def _finish(proc: HoProcedure, ids: tuple[int, ...], now: int, deliver_keys: bool) -> None:
    _emit(proc, ids, now, _COMPLETION[deliver_keys])
    proc.t_complete = now
    proc.prep_wait_ms = now - proc.t_trigger


def begin_handover(
    ue_id: int,
    s_cell: int,
    t_cell: int,
    scheme: Scheme,
    ledger: SimulatedLedger | None,
    now: int,
    trace: SignalTrace,
    t_cell_keys: Sequence | None = None,
    s_domain: str | None = None,
    t_domain: str | None = None,
    timeout_ms: int | None = None,
) -> HoProcedure:
    """Start a handover; completes immediately unless keys must be ledgered.

    The returned procedure is complete, or it is a ``LEDGER_FIRST_HO``
    one with ``t_complete`` None that ``try_complete`` finishes.

    By default every cell is its own security domain, so every handover
    crosses domains and needs key sharing.  With a ledger, ``trace`` must
    be the ledger's own, since its uploads and broadcasts are rows of the
    procedure too.
    """
    if t_cell == s_cell:
        raise NoOpHandover(f"ue{ue_id}: target equals serving cell {s_cell}")
    if ledger is not None and trace is not ledger.trace:
        raise InvalidParameter("a handover with a ledger signals on the ledger's trace")
    s_domain = str(s_cell) if s_domain is None else s_domain
    t_domain = str(t_cell) if t_domain is None else t_domain
    if timeout_ms is None:
        timeout_ms = 2 * (ledger.period if ledger is not None else 1000)
    proc = HoProcedure(
        ue_id=ue_id,
        s_cell=s_cell,
        t_cell=t_cell,
        scheme=scheme,
        t_trigger=now,
        timeout_ms=timeout_ms,
        t_domain=t_domain,
        trace=trace,
    )
    ids = _endpoints(proc)
    _emit(proc, ids, now, _REQUEST)

    if s_domain == t_domain:
        proc.key_path = KeyPath.INTRA_DOMAIN
        _finish(proc, ids, now, deliver_keys=False)
        return proc

    if scheme is not Scheme.BLOCKCHAIN:
        proc.key_path = KeyPath.BASELINE_PER_HO
        _emit(proc, ids, now, _KEY_TO_SBS)
        _finish(proc, ids, now, deliver_keys=True)
        return proc

    if ledger is None:
        raise InvalidParameter("ledger scheme needs a ledger instance")
    if ledger.query_keys(_bsh(s_cell), t_domain) is not None:
        proc.key_path = KeyPath.LEDGER_STEADY_STATE
        _finish(proc, ids, now, deliver_keys=True)
        return proc

    # First visit (or upload still pending): share keys via the ledger.
    proc.key_path = KeyPath.LEDGER_FIRST_HO
    if not ledger.is_pending(t_domain, EntryKind.CELL_KEY_SET):
        if t_cell_keys is None:
            raise InvalidParameter(f"no key set supplied for cell {t_cell}")
        receipt = ledger.submit_candidate(
            CandidateEntry(
                entry_kind=EntryKind.CELL_KEY_SET,
                origin=_bsh(t_cell),
                payload=tuple(t_cell_keys),
                submitted_at=now,
                domain=t_domain,
            )
        )
        if receipt.accepted:
            proc.did_upload = True
            proc.rows.append(len(trace) - 1)  # the upload row
    return proc


def try_complete(proc: HoProcedure, ledger: SimulatedLedger, now: int) -> bool:
    """Finish a preparation-blocked handover once its keys are ledgered."""
    if proc.complete:
        return True
    if ledger.query_keys(_bsh(proc.s_cell), proc.t_domain) is None:
        if now - proc.t_trigger > proc.timeout_ms:
            raise HoPreparationTimeout(
                f"ue{proc.ue_id}: keys for domain {proc.t_domain} not ledgered "
                f"within {proc.timeout_ms} ms"
            )
        return False
    if proc.did_upload:
        proc.rows.append(ledger.broadcast_row(proc.t_domain, EntryKind.CELL_KEY_SET))
    _finish(proc, _endpoints(proc), now, deliver_keys=True)
    return True


# ----------------------------------------------------------------------
# prediction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrestageAction:
    cell: int
    domain: str
    t: int
    uploaded: bool


def predict_and_prestage(
    ue_id: int,
    target_cell: int,
    prediction: PredictionConfig,
    ledger: SimulatedLedger,
    rng: np.random.Generator,
    now: int,
    t_cell_keys: Sequence,
    t_domain: str | None = None,
) -> PrestageAction | None:
    """Upload a forecast target cell's keys ahead of the projected trigger.

    Succeeds with probability ``accuracy``; a failed draw means the
    handover later runs the unpredicted path.  Prestaging never uploads a
    cell that is already pending or ledgered (submission is idempotent),
    so prediction cannot inflate per-cell upload counts.
    """
    if not prediction.enabled:
        return None
    domain = str(target_cell) if t_domain is None else t_domain
    if float(rng.random()) >= prediction.accuracy:
        return None
    receipt = ledger.submit_candidate(
        CandidateEntry(
            entry_kind=EntryKind.CELL_KEY_SET,
            origin=_bsh(target_cell),
            payload=tuple(t_cell_keys),
            submitted_at=now,
            domain=domain,
        )
    )
    return PrestageAction(target_cell, domain, now, uploaded=receipt.accepted)


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


@dataclass(frozen=True)
class HoEvent:
    """One handover trigger, the scheme-independent unit of comparison."""

    ue_id: int
    s_cell: int
    t_cell: int
    t_trigger: int


def _name_ids(trace: SignalTrace, name, values: np.ndarray) -> np.ndarray:
    """Name ids in ``trace`` of ``name(v)`` for every entry of ``values``."""
    uniq, inverse = np.unique(values, return_inverse=True)
    ids = np.array([trace.name_id(name(v)) for v in uniq.tolist()], dtype=np.int64)
    return ids[inverse]


def replay_key_signaling(
    events: Sequence[HoEvent],
    scheme: Scheme,
    cell_keys: Mapping[int, Sequence],
    horizon_ms: int,
    rs_period_ms: int = 160,
    collection_period_ms: int = 1000,
) -> SignalTrace:
    """Key-exchange signals of a time-ordered HO event stream under one
    key-sharing policy, with no per-UE concurrency limits.

    Baseline handovers send keys to the serving BS and on to the UE at
    their trigger.  Under the ledger scheme each cell's key set is uploaded
    at its first trigger, and every handover gets its keys at the first RS
    instant at or after its block verified, as in the event loop; blocks
    verify up to the last RS instant at or before the horizon.
    """
    trace = SignalTrace()
    ue, s_cell, t_cell, t_trigger = (
        np.fromiter(map(attrgetter(f), events), dtype=np.int64, count=len(events))
        for f in ("ue_id", "s_cell", "t_cell", "t_trigger")
    )
    s_ids, ue_ids = _name_ids(trace, _bsh, s_cell), _name_ids(trace, _ue, ue)
    if scheme is not Scheme.BLOCKCHAIN:
        # Two rows per event: target to serving BS, then serving BS to UE.
        trace.extend(
            [KIND_CODE[SignalKind.KEY_TO_SBS], KIND_CODE[SignalKind.KEY_TO_UE]] * len(events),
            np.column_stack([_name_ids(trace, _bsh, t_cell), s_ids]).ravel().tolist(),
            np.column_stack([s_ids, ue_ids]).ravel().tolist(),
            np.repeat(t_trigger, 2).tolist(),
        )
        return trace
    led = SimulatedLedger({_bsh(c) for c in cell_keys}, collection_period_ms, trace)
    cells, first, inverse = np.unique(t_cell, return_index=True, return_inverse=True)
    for i in np.sort(first).tolist():  # each cell's first trigger, in stream order
        ev = events[i]
        led.submit_candidate(CandidateEntry(
            EntryKind.CELL_KEY_SET, _bsh(ev.t_cell), tuple(cell_keys[ev.t_cell]),
            ev.t_trigger, str(ev.t_cell),
        ))
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
